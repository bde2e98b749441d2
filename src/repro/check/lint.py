"""AST linter enforcing repo-specific invariants over ``src/``.

The rules encode invariants no pytest run checks globally — mostly the
byte-identity contract of the campaign/report path (a sweep with any number
of workers must reproduce the serial report byte-for-byte) and the cost
discipline of the solver/engine hot loops:

====== ===================== =====================================================
ID     slug                  invariant
====== ===================== =====================================================
R001   wall-clock            no ``time.time()`` / ``datetime.now()`` (or kin)
                             in byte-identity-critical modules
R002   unseeded-random       no module-level ``random.*`` (the shared unseeded
                             RNG) in byte-identity-critical modules
R003   raw-jsonl-loop        no ``json.loads`` inside a loop outside
                             :mod:`repro.jsonutil` (its tear/corruption policy
                             is the single JSONL reading path)
R004   hot-loop-call         no tracing (``trace_event`` / ``.emit``) or
                             allocation-heavy builtin calls inside loops
                             marked ``# hot-loop``
R005   to-dict-roundtrip     every class with ``to_dict`` has a ``from_dict``
                             reading every literal key ``to_dict`` writes
R006   except-swallow        no bare ``except:``, and no ``except Exception``
                             (or ``BaseException``) whose body only ``pass``es
                             — swallowed failures corrupt campaign results
                             silently
R007   unused-import         no imported name the module never reads (names
                             in ``__all__`` and in string annotations count
                             as read; ``from __future__`` is exempt)
====== ===================== =====================================================

Suppression: append ``# repro-lint: disable=R001`` (comma-separated IDs, or
``all``) to the offending line, or put ``# repro-lint: disable-file=R001``
on its own line anywhere to silence a rule for the whole file — see
``CHECKS.md``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

#: Stable rule IDs -> (slug, one-line description).
RULES: Dict[str, Tuple[str, str]] = {
    "R001": (
        "wall-clock",
        "wall-clock call in a byte-identity-critical module",
    ),
    "R002": (
        "unseeded-random",
        "shared unseeded RNG used in a byte-identity-critical module",
    ),
    "R003": (
        "raw-jsonl-loop",
        "raw json.loads loop outside repro.jsonutil",
    ),
    "R004": (
        "hot-loop-call",
        "tracing/allocation-heavy call inside a # hot-loop",
    ),
    "R005": (
        "to-dict-roundtrip",
        "to_dict without a from_dict covering the same keys",
    ),
    "R006": (
        "except-swallow",
        "bare except, or except Exception whose body only passes",
    ),
    "R007": (
        "unused-import",
        "imported name the module never reads",
    ),
}

#: Modules whose serialized output feeds byte-compared artifacts (campaign
#: records, reports, LaTeX emission) or whose measurements must come from
#: monotonic clocks (the acceptance bars' timers in ``repro.perf``).  Prefix
#: match on the dotted module name.
DETERMINISTIC_PREFIXES: Tuple[str, ...] = (
    "repro.campaign",
    "repro.experiments",
    "repro.perf",
)

#: Wall-clock call targets banned by R001 (monotonic clocks are fine: they
#: only ever feed elapsed-time fields, which reports redact for comparison).
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Module-level ``random`` functions banned by R002 (the shared, unseeded
#: process RNG).  ``random.Random(seed)`` instances are the sanctioned path.
_GLOBAL_RANDOM = {
    f"random.{name}"
    for name in (
        "random", "randint", "randrange", "getrandbits", "choice", "choices",
        "shuffle", "sample", "uniform", "seed", "betavariate", "gauss",
    )
}

#: Calls banned inside ``# hot-loop`` loops: tracing hooks and the
#: allocation-heavy builtins whose per-iteration cost dominates pure-Python
#: inner loops.  (``len``/arithmetic/indexing stay free.)
_HOT_LOOP_NAME_DENY = {
    "trace_event", "dict", "set", "list", "tuple", "sorted", "frozenset",
    "deepcopy", "print",
}
_HOT_LOOP_ATTR_DENY = {"emit"}

#: Marker comment making R004 apply to a loop (on the loop's first line or
#: the line directly above it).
HOT_LOOP_MARK = "# hot-loop"

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")
_SUPPRESS_FILE_RE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding:  # repro-lint: disable=R005 (one-way CLI/CI payload, never read back)
    """One lint violation: where it is, which rule, and why it matters."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    @property
    def slug(self) -> str:
        return RULES.get(self.rule, ("unknown", ""))[0]

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.slug}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "file": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "slug": self.slug,
            "message": self.message,
        }


def module_name_for(path: Union[str, Path]) -> str:
    """Dotted module name of a source file (anchored at the ``repro`` package).

    Files outside a ``repro`` package root fall back to their stem, which
    makes the module-scoped rules (R001/R002) inert for them while the
    generic rules (R003-R005) still apply.
    """
    parts = Path(path).with_suffix("").parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            dotted = ".".join(parts[index:])
            return dotted[:-len(".__init__")] if dotted.endswith(".__init__") else dotted
    return Path(path).stem


def _is_deterministic_module(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in DETERMINISTIC_PREFIXES
    )


def _dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain to a dotted origin, through imports.

    ``import time`` + ``time.time`` -> ``time.time``; ``from time import
    time as now`` + ``now`` -> ``time.time``; unresolvable chains (calls on
    call results, subscripts, locals) return None.
    """
    chain: List[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id, node.id)
    chain.append(base)
    return ".".join(reversed(chain))


class _FromDictScan(ast.NodeVisitor):
    """Collect the literal keys a ``from_dict`` body reads off its mapping."""

    def __init__(self) -> None:
        self.keys: Set[str] = set()
        self.dynamic = False

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and node.func.attr == "get" and node.args:
            key = node.args[0]
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                self.keys.add(key.value)
            else:
                self.dynamic = True
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, ast.Load):
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                self.keys.add(key.value)
            elif not isinstance(key, ast.Constant):
                self.dynamic = True
        self.generic_visit(node)


class _ToDictScan(ast.NodeVisitor):
    """Collect the literal keys a ``to_dict`` body writes.

    Covers dict displays (``{"a": ...}``) and subscript stores
    (``payload["a"] = ...``); keys built dynamically (loops over field
    tuples) are invisible here, which is exactly the asymmetry R005 wants:
    a *literal* key someone added to ``to_dict`` must show up literally in
    ``from_dict`` too.
    """

    def __init__(self) -> None:
        self.keys: Dict[str, Tuple[int, int]] = {}

    def _note(self, key: ast.AST) -> None:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            self.keys.setdefault(key.value, (key.lineno, key.col_offset))

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None:
                self._note(key)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._note(target.slice)
        self.generic_visit(node)


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, module: str, source_lines: Sequence[str]) -> None:
        self.path = path
        self.module = module
        self.lines = source_lines
        self.findings: List[Finding] = []
        self.aliases: Dict[str, str] = {}
        self.loop_depth = 0
        self.hot_loop_depth = 0
        self.deterministic = _is_deterministic_module(module)
        self.in_jsonutil = module == "repro.jsonutil"

    # ------------------------------------------------------------- plumbing
    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message,
            )
        )

    def _line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    # -------------------------------------------------------------- imports
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            self.aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_roundtrip(node)
        self.generic_visit(node)

    # ---------------------------------------------------------------- loops
    def _visit_loop(self, node) -> None:
        marked = HOT_LOOP_MARK in self._line(node.lineno) or (
            HOT_LOOP_MARK in self._line(node.lineno - 1)
        )
        self.loop_depth += 1
        self.hot_loop_depth += 1 if marked else 0
        self.generic_visit(node)
        self.hot_loop_depth -= 1 if marked else 0
        self.loop_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    # ---------------------------------------------------------------- calls
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func, self.aliases)
        if dotted is not None:
            if self.deterministic and dotted in _WALL_CLOCK:
                self._report(
                    node, "R001",
                    f"{dotted}() stamps wall-clock time into a byte-identity-"
                    "critical module; use a monotonic clock for durations or "
                    "carry the timestamp in from the caller",
                )
            if self.deterministic and dotted in _GLOBAL_RANDOM:
                self._report(
                    node, "R002",
                    f"{dotted}() draws from the shared unseeded RNG; "
                    "construct random.Random(seed) so reruns reproduce",
                )
            if (
                dotted == "json.loads"
                and self.loop_depth > 0
                and not self.in_jsonutil
            ):
                self._report(
                    node, "R003",
                    "json.loads inside a loop: JSONL files are read through "
                    "repro.jsonutil.read_jsonl_objects, the one place with "
                    "the torn-tail/corruption policy",
                )
        if self.hot_loop_depth > 0:
            name: Optional[str] = None
            if isinstance(node.func, ast.Name):
                name = node.func.id if node.func.id in _HOT_LOOP_NAME_DENY else None
            elif isinstance(node.func, ast.Attribute):
                name = (
                    f".{node.func.attr}"
                    if node.func.attr in _HOT_LOOP_ATTR_DENY
                    else None
                )
            if name is not None:
                self._report(
                    node, "R004",
                    f"call to {name}() inside a # hot-loop; hoist it out of "
                    "the loop or gate it behind the conflict/restart branch",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------ exceptions
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                node, "R006",
                "bare except catches everything including KeyboardInterrupt/"
                "SystemExit; name the exception types you expect",
            )
        else:
            caught = [node.type]
            if isinstance(node.type, ast.Tuple):
                caught = list(node.type.elts)
            broad = any(
                isinstance(item, ast.Name)
                and item.id in ("Exception", "BaseException")
                for item in caught
            )
            swallows = all(
                isinstance(stmt, ast.Pass)
                or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
                for stmt in node.body
            )
            if broad and swallows:
                self._report(
                    node, "R006",
                    "except Exception with a pass-only body swallows every "
                    "failure silently; narrow the type, or at least record "
                    "why discarding is safe and re-raise what you can't "
                    "handle",
                )
        self.generic_visit(node)

    # ----------------------------------------------------------- round trip
    def _check_roundtrip(self, node: ast.ClassDef) -> None:
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, ast.FunctionDef)
        }
        to_dict = methods.get("to_dict")
        if to_dict is None:
            return
        from_dict = methods.get("from_dict")
        if from_dict is None:
            self._report(
                node, "R005",
                f"class {node.name} defines to_dict but no from_dict; "
                "serialized payloads must round-trip",
            )
            return
        writes = _ToDictScan()
        writes.visit(to_dict)
        reads = _FromDictScan()
        reads.visit(from_dict)
        missing = sorted(set(writes.keys) - reads.keys)
        if missing and not reads.dynamic:
            keys = ", ".join(repr(key) for key in missing)
            self._report(
                to_dict, "R005",
                f"{node.name}.to_dict writes {keys} but from_dict never "
                "reads it; the round trip silently drops the field",
            )


def _unread_imports(tree: ast.Module) -> List[Tuple[str, ast.stmt]]:
    """(name, import statement) for each imported name the module never reads.

    Reads are loads of the name anywhere in the module, names inside string
    annotations (``-> "Circuit"``) and the strings of ``__all__``.
    """
    imported: List[Tuple[str, ast.stmt]] = []
    read: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name.split(".")[0], node) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(alias.asname or alias.name, node) for alias in node.names
                         if alias.name != "*"]
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign)) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        ):
            read.update(item.value for item in ast.walk(node.value)
                        if isinstance(item, ast.Constant) and isinstance(item.value, str))
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    try:
                        expression = ast.parse(part.value, mode="eval")
                    except SyntaxError:
                        continue
                    read.update(name.id for name in ast.walk(expression)
                                if isinstance(name, ast.Name))
    imported.sort(key=lambda entry: entry[1].lineno)
    return [(name, node) for name, node in imported if name not in read]


def _suppressions(source_lines: Sequence[str]) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Parse per-line and file-wide ``# repro-lint:`` suppression comments."""
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    for lineno, line in enumerate(source_lines, start=1):
        match = _SUPPRESS_FILE_RE.search(line)
        if match:
            per_file.update(
                token.strip() for token in match.group(1).split(",") if token.strip()
            )
            continue
        match = _SUPPRESS_RE.search(line)
        if match:
            per_line[lineno] = {
                token.strip() for token in match.group(1).split(",") if token.strip()
            }
    return per_line, per_file


def _suppressed(finding: Finding, per_line: Dict[int, Set[str]], per_file: Set[str]) -> bool:
    if "all" in per_file or finding.rule in per_file:
        return True
    rules = per_line.get(finding.line, set())
    return "all" in rules or finding.rule in rules


def lint_source(
    source: str,
    *,
    path: Union[str, Path] = "<string>",
    module: Optional[str] = None,
) -> List[Finding]:
    """Lint one source text; returns the unsuppressed findings."""
    path = str(path)
    if module is None:
        module = module_name_for(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1 if exc.offset is not None else 1,
                rule="R000",
                message=f"file does not parse: {exc.msg}",
            )
        ]
    lines = source.splitlines()
    linter = _Linter(path, module, lines)
    linter.visit(tree)
    for name, node in _unread_imports(tree):
        linter._report(
            node, "R007",
            f"{name!r} is imported but never read; delete the import, or list "
            "the name in __all__ to re-export it",
        )
    per_line, per_file = _suppressions(lines)
    return [
        finding
        for finding in linter.findings
        if not _suppressed(finding, per_line, per_file)
    ]


def lint_paths(paths: Iterable[Union[str, Path]]) -> List[Finding]:
    """Lint files and/or directory trees (``*.py``, sorted for stable output)."""
    files: List[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        else:
            files.append(entry)
    findings: List[Finding] = []
    for file in files:
        findings.extend(
            lint_source(file.read_text(encoding="utf-8"), path=file)
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def render_findings(findings: Sequence[Finding]) -> str:
    """Human-readable report (one ``path:line:col: RULE message`` per line)."""
    if not findings:
        return "repro check lint: clean"
    lines = [finding.render() for finding in findings]
    lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)
