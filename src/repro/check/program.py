"""Structural check of the engine's compiled op list.

:func:`repro.engine.compiler.compile_circuit` lowers a circuit to a flat
list of :class:`~repro.engine.compiler.PackedOp` records that
:meth:`~repro.engine.compiler.CompiledCircuit.run` interprets.
:func:`verify_compiled` proves that list is a straight-line, levelized,
single-assignment program:

* every slot an op reads is a declared source (primary input / flip-flop
  Q) or the output of an earlier op;
* every op writes one in-range slot, no slot is written twice, and no op
  writes a source;
* each op's kind is one the interpreter knows, with the right arity: a
  ``FOLD`` reads at least one slot under ``and_``, ``or_`` or ``xor``, a
  ``MUX`` reads three, a ``CONST`` none.

The check is always-on in the test suite (see ``tests/conftest.py``) and
opt-in at runtime via ``REPRO_CHECK_KERNELS=1``; :func:`verify_packed_words`
is the matching runtime word-range sanitizer for the packed simulator.
"""

from __future__ import annotations

import operator
from typing import Iterable, List, Sequence, Set

from repro.netlist.circuit import CircuitError

_FOLDS = (operator.and_, operator.or_, operator.xor)


class KernelVerificationError(CircuitError):
    """A compiled program failed structural verification.

    Carries the offending program ``label`` and the list of violation
    messages; ``str()`` renders them all.
    """

    def __init__(self, label: str, violations: Sequence[str]) -> None:
        self.label = label
        self.violations = list(violations)
        summary = "; ".join(self.violations)
        super().__init__(f"kernel {label}: {summary}")


def verify_compiled(compiled) -> List[int]:
    """Verify the op list of a :class:`CompiledCircuit`.

    Returns the assigned slots in program order; raises
    :class:`KernelVerificationError` listing every violation.
    """
    from repro.engine.compiler import CONST, FOLD, MUX

    defined: Set[int] = set(compiled.input_slots)
    defined.update(slot for _, slot, _ in compiled.state_items)
    violations: List[str] = []
    assigned: List[int] = []
    for index, op in enumerate(compiled.ops):
        where = f"op #{index}"
        ins = op.in_slots
        if op.kind == FOLD:
            if not ins or op.fold not in _FOLDS:
                violations.append(
                    f"{where}: fold over {len(ins)} input(s) with {op.fold!r}"
                )
        elif op.kind in (MUX, CONST):
            arity = 3 if op.kind == MUX else 0
            if len(ins) != arity:
                violations.append(
                    f"{where}: {op.kind} reads {len(ins)} slot(s), expected {arity}"
                )
        else:
            violations.append(f"{where}: unknown kind {op.kind!r}")
        # Reads are checked before the output is marked defined, so an op
        # reading its own slot (a spliced combinational cycle) is reported
        # as a use-before-def on that slot.
        for slot in ins:
            if slot not in defined:
                violations.append(
                    f"{where}: reads slot {slot} before it is defined "
                    "(levelization broken)"
                )
        if not 0 <= op.out_slot < compiled.num_slots:
            violations.append(f"{where}: writes slot {op.out_slot} out of range")
        elif op.out_slot in defined:
            violations.append(
                f"{where}: slot {op.out_slot} assigned twice (program is "
                "not single-assignment)"
            )
        defined.add(op.out_slot)
        assigned.append(op.out_slot)
    if violations:
        raise KernelVerificationError(f"<{compiled.circuit.name} ops>", violations)
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
    of bug the mask discipline of :meth:`CompiledCircuit.run` exists to
    prevent.
    """
    violations = [
        f"word #{index} = {word:#x} outside [0, {mask:#x}]"
        for index, word in enumerate(values)
        if word < 0 or word > mask
    ]
    if violations:
        raise KernelVerificationError(label, violations)
