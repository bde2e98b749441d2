"""Standard DIMACS CNF reading and writing.

External instances — and the certificate CNFs written next to DRUP
proofs — follow the *standard* format: clauses are token streams
terminated by ``0`` that may span lines or share one, with ``c``
comments, an optional ``p cnf V C`` header, and the ``%``/``0`` trailer
some benchmark suites append.  This module parses that dialect and
renders it (:func:`render_dimacs`, one clause per line); ``repro check
cnf`` and ``repro check proof`` both read through it.

No imports from the rest of `repro` — the certify core stays dependency-free
so the checker cannot inherit a solver bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

__all__ = ["DimacsError", "DimacsFile", "parse_dimacs", "load_dimacs", "render_dimacs"]


class DimacsError(ValueError):
    """A DIMACS file that cannot be parsed; carries ``path`` and ``line``."""

    def __init__(self, path: str, line: int, message: str) -> None:
        self.path = path
        self.line = line
        self.message = message
        super().__init__(f"{path}:{line}: {message}")


@dataclass
class DimacsFile:
    """A parsed DIMACS CNF: clauses plus whatever the header declared."""

    clauses: List[Tuple[int, ...]] = field(default_factory=list)
    header_vars: Optional[int] = None
    header_clauses: Optional[int] = None

    @property
    def num_vars(self) -> int:
        """Variable count: the header's, or the largest variable seen."""
        seen = 0
        for clause in self.clauses:
            for lit in clause:
                if abs(lit) > seen:
                    seen = abs(lit)
        if self.header_vars is None:
            return seen
        return max(self.header_vars, seen)


def parse_dimacs(text: str, *, path: str = "<dimacs>", strict: bool = False) -> DimacsFile:
    """Parse standard DIMACS CNF text.

    Lenient by default: a missing header, a header/clause-count mismatch and
    out-of-header-range variables are all tolerated (``check cnf`` reports
    those as violations with better context).  ``strict=True`` additionally
    requires a ``p cnf`` header before any clause and rejects a trailing
    unterminated clause — the contract certificate CNFs are written to.
    """
    parsed = DimacsFile()
    pending: List[int] = []
    pending_line = 0
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):  # benchmark-suite trailer: ends the file
            break
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise DimacsError(path, lineno, f"malformed header {line!r} (expected 'p cnf VARS CLAUSES')")
            if saw_header:
                raise DimacsError(path, lineno, "duplicate 'p cnf' header")
            try:
                parsed.header_vars = int(fields[2])
                parsed.header_clauses = int(fields[3])
            except ValueError:
                raise DimacsError(path, lineno, f"non-numeric header counts in {line!r}") from None
            if parsed.header_vars < 0 or parsed.header_clauses < 0:
                raise DimacsError(path, lineno, f"negative header counts in {line!r}")
            saw_header = True
            continue
        if strict and not saw_header:
            raise DimacsError(path, lineno, "clause before 'p cnf' header")
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError(path, lineno, f"unparseable token {token!r}") from None
            if lit == 0:
                parsed.clauses.append(tuple(pending))
                pending = []
                pending_line = 0
            else:
                if not pending:
                    pending_line = lineno
                pending.append(lit)
    if pending:
        if strict:
            raise DimacsError(path, pending_line, "clause is never terminated by 0")
        parsed.clauses.append(tuple(pending))
    return parsed


def load_dimacs(path: str, *, strict: bool = False) -> DimacsFile:
    """Read and parse a DIMACS CNF file (raises OSError / DimacsError)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_dimacs(text, path=str(path), strict=strict)


def render_dimacs(clauses: Sequence[Sequence[int]], num_vars: int) -> str:
    """Render clauses as standard DIMACS text (one clause per line)."""
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    for clause in clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"
