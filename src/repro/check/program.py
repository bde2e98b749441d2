"""Verifier for exec-generated engine kernels.

:func:`repro.engine.compiler.compile_circuit` lowers a circuit to python
source and ``exec``-s it — the one place the repo runs synthesized code.
This module parses that source back to an AST and proves, *before* it is
executed, that every kernel is exactly the program shape the compiler
promises:

* **straight-line** — the kernel body is nothing but ``v[<slot>] = <expr>``
  assignments (no calls, loops, branches, imports, attribute access);
* **levelized** — every slot an expression reads was written by an earlier
  assignment or is a declared source (primary input / flip-flop Q), and no
  slot is assigned twice;
* **bitwise-only** — expressions are built solely from ``&``, ``|``, ``^``,
  unary ``~``, slot reads ``v[<slot>]``, the ``mask`` parameter, and the
  integer constant ``0`` (any other literal means a mask-consistency bug).

The check is always-on in the test suite (see ``tests/conftest.py``) and
opt-in at runtime via ``REPRO_CHECK_KERNELS=1``; :func:`verify_packed_words`
is the matching runtime word-range sanitizer for the packed simulator.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Sequence, Set

from repro.netlist.circuit import CircuitError

_KERNEL_NAME = "_kernel"
_KERNEL_PARAMS = ("v", "mask")

#: Binary operators a kernel expression may use.
_ALLOWED_BINOPS = (ast.BitAnd, ast.BitOr, ast.BitXor)


class KernelVerificationError(CircuitError):
    """A generated kernel failed structural verification.

    Carries the offending chunk ``label`` and the list of violation
    messages; ``str()`` renders them all.
    """

    def __init__(self, label: str, violations: Sequence[str]) -> None:
        self.label = label
        self.violations = list(violations)
        summary = "; ".join(self.violations)
        super().__init__(f"kernel {label}: {summary}")


def _check_expression(
    node: ast.expr,
    defined: Set[int],
    violations: List[str],
) -> None:
    """Walk one right-hand side, collecting whitelist violations."""
    if isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            violations.append(
                f"line {node.lineno}: operator {type(node.op).__name__} is "
                "not a bitwise op"
            )
        _check_expression(node.left, defined, violations)
        _check_expression(node.right, defined, violations)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, ast.Invert):
            violations.append(
                f"line {node.lineno}: unary {type(node.op).__name__} "
                "(only ~ is allowed)"
            )
        _check_expression(node.operand, defined, violations)
    elif isinstance(node, ast.Subscript):
        if not (isinstance(node.value, ast.Name) and node.value.id == "v"):
            violations.append(
                f"line {node.lineno}: subscript of something other than v"
            )
            return
        index = node.slice
        if not (isinstance(index, ast.Constant) and isinstance(index.value, int)
                and not isinstance(index.value, bool)):
            violations.append(
                f"line {node.lineno}: non-constant slot index in v[...]"
            )
            return
        if index.value not in defined:
            violations.append(
                f"line {node.lineno}: reads v[{index.value}] before it is "
                "defined (levelization broken)"
            )
    elif isinstance(node, ast.Name):
        if node.id != "mask":
            violations.append(
                f"line {node.lineno}: free name {node.id!r} (only mask)"
            )
    elif isinstance(node, ast.Constant):
        # 0 is the lone legal literal (CONST0); anything else — including a
        # hand-inlined mask value — is a width-consistency bug.
        if node.value != 0 or isinstance(node.value, bool) or not isinstance(node.value, int):
            violations.append(
                f"line {node.lineno}: literal {node.value!r} (only the "
                "constant 0 and the mask parameter are mask-consistent)"
            )
    else:
        violations.append(
            f"line {node.lineno}: node {type(node).__name__} is not in the "
            "straight-line bitwise whitelist"
        )


def verify_kernel_source(
    source: str,
    defined: Set[int],
    *,
    label: str = "<kernel>",
) -> List[int]:
    """Verify one generated kernel chunk against the program whitelist.

    ``defined`` is the set of slots already written (inputs, DFF Qs, and
    outputs of earlier chunks); it is updated in place with this chunk's
    assignments so chunks verify sequentially.  Returns the slots this
    chunk assigns, in order.  Raises :class:`KernelVerificationError` on
    the first chunk with any violation (all of that chunk's violations are
    attached).
    """
    violations: List[str] = []
    assigned: List[int] = []
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise KernelVerificationError(label, [f"does not parse: {exc.msg}"])

    if len(tree.body) != 1 or not isinstance(tree.body[0], ast.FunctionDef):
        raise KernelVerificationError(
            label, ["source is not a single function definition"]
        )
    func = tree.body[0]
    params = tuple(arg.arg for arg in func.args.args)
    if (
        func.name != _KERNEL_NAME
        or params != _KERNEL_PARAMS
        or func.args.vararg or func.args.kwarg
        or func.args.kwonlyargs or func.args.posonlyargs
        or func.args.defaults or func.decorator_list
    ):
        raise KernelVerificationError(
            label,
            [f"signature is not exactly def {_KERNEL_NAME}(v, mask)"],
        )

    for stmt in func.body:
        if isinstance(stmt, ast.Pass):
            continue
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            violations.append(
                f"line {stmt.lineno}: statement {type(stmt).__name__} is not "
                "a single v[slot] assignment"
            )
            continue
        target = stmt.targets[0]
        if not (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and target.value.id == "v"
            and isinstance(target.slice, ast.Constant)
            and isinstance(target.slice.value, int)
            and not isinstance(target.slice.value, bool)
        ):
            violations.append(
                f"line {stmt.lineno}: assignment target is not v[<constant slot>]"
            )
            continue
        slot = target.slice.value
        if slot < 0:
            violations.append(f"line {stmt.lineno}: negative slot v[{slot}]")
            continue
        if slot in defined:
            violations.append(
                f"line {stmt.lineno}: v[{slot}] assigned twice (program is "
                "not single-assignment straight-line code)"
            )
            continue
        # The RHS is checked before the target is marked defined, so a
        # self-referential assignment (a spliced combinational cycle) is
        # reported as a use-before-def on its own slot.
        _check_expression(stmt.value, defined, violations)
        defined.add(slot)
        assigned.append(slot)

    if violations:
        raise KernelVerificationError(label, violations)
    return assigned


def verify_compiled(compiled) -> List[int]:
    """Verify every generated kernel chunk of a :class:`CompiledCircuit`.

    Seeds the defined-slot set with the circuit's sources (primary inputs
    and flip-flop Q slots) and threads it through the chunks in execution
    order, so cross-chunk use-before-def is caught too.  Returns all
    assigned slots in program order; raises
    :class:`KernelVerificationError` on the first bad chunk.
    """
    from repro.engine.compiler import kernel_sources

    defined: Set[int] = set(compiled.input_slots)
    defined.update(slot for _, slot, _ in compiled.state_items)
    assigned: List[int] = []
    for start, source in kernel_sources(compiled.ops):
        assigned.extend(
            verify_kernel_source(
                source, defined, label=f"<repro.engine kernel@{start}>"
            )
        )
    return assigned


def verify_packed_words(
    values: Iterable[int],
    mask: int,
    *,
    label: str = "<packed words>",
) -> None:
    """Runtime sanitizer: every packed word must fit the batch mask.

    A word outside ``[0, mask]`` means some op leaked bits past the lane
    width (or went negative through a missing mask XOR) — the exact class
    of bug the mask discipline in ``_op_expression`` exists to prevent.
    """
    violations = [
        f"word #{index} = {word:#x} outside [0, {mask:#x}]"
        for index, word in enumerate(values)
        if word < 0 or word > mask
    ]
    if violations:
        raise KernelVerificationError(label, violations)
