"""Circuit -> flat levelized program compilation.

Compilation assigns every net a dense integer *slot* (primary inputs first,
then flip-flop Q pins, then gate outputs in topological order) and lowers
every gate to one :class:`PackedOp` record over packed words: a ``FOLD`` of
its inputs under ``operator.and_``, ``or_`` or ``xor``, a ``MUX``, or a
``CONST``, each optionally inverted.  Inversions (NOT, NAND, NOR, XNOR,
CONST1) XOR the result with the batch mask ``(1 << width) - 1`` so the
packed words never grow sign bits; the MUX ``(d0 & ~sel) | (d1 & sel)``
needs no mask because both data words are already mask-confined.

:meth:`CompiledCircuit.run` interprets that op list, the engine's one
evaluation path; the structural check
(:func:`repro.check.program.verify_compiled`, armed by
``REPRO_CHECK_KERNELS=1`` and always on in the test suite) and the
translation validator (:mod:`repro.check.certify.equiv`) read the same
list.  Words are arbitrary-width Python ints; :mod:`repro.engine.packed`
evaluates a batch of any width as one pass.
"""

from __future__ import annotations

import importlib.util
import operator
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import GateType

#: Op kinds: fold the inputs with ``fold``, select with a 2:1 MUX, or a constant 0.
FOLD = "fold"
MUX = "mux"
CONST = "const"

#: Gate type -> ``(kind, fold, invert)``.  BUF and NOT are one-input folds.
_LOWERING: Dict[GateType, Tuple[str, Optional[Callable[[int, int], int]], bool]] = {
    GateType.BUF: (FOLD, operator.and_, False),
    GateType.NOT: (FOLD, operator.and_, True),
    GateType.AND: (FOLD, operator.and_, False),
    GateType.NAND: (FOLD, operator.and_, True),
    GateType.OR: (FOLD, operator.or_, False),
    GateType.NOR: (FOLD, operator.or_, True),
    GateType.XOR: (FOLD, operator.xor, False),
    GateType.XNOR: (FOLD, operator.xor, True),
    GateType.MUX: (MUX, None, False),
    GateType.CONST0: (CONST, None, False),
    GateType.CONST1: (CONST, None, True),
}


def numpy_available() -> bool:
    """True when numpy is installed, probed without importing it.

    The engine does not use numpy; ``perfbench/worker.py`` records this in
    its environment report.
    """
    return importlib.util.find_spec("numpy") is not None


class PackedOp(NamedTuple):
    """One flat operation: evaluate a gate into its output slot.

    A ``FOLD`` combines its input words left to right with ``fold``; a
    ``MUX`` reads ``(sel, d0, d1)``; a ``CONST`` has no inputs and is 0.
    ``invert`` XORs the result with the batch mask.
    """

    kind: str
    fold: Optional[Callable[[int, int], int]]
    invert: bool
    out_slot: int
    in_slots: Tuple[int, ...]


@dataclass
class CompiledCircuit:
    """A circuit lowered to a flat slot-indexed program.

    Attributes
    ----------
    circuit:
        The source circuit (kept for metadata; the program never reads it).
    slot_of:
        Net name -> slot index for every driven net.
    net_names:
        Inverse of ``slot_of`` (slot index -> net name).
    input_slots:
        Slots of ``circuit.inputs`` in declaration order.
    output_slots:
        Slots of ``circuit.outputs`` in declaration order.
    state_items:
        ``(q_net, slot, init)`` per flip-flop in insertion order.
    dff_d_slots:
        ``(q_net, d_slot)`` per flip-flop: where each next-state bit lives
        after a pass.
    ops:
        The flat program, sorted by level (a valid evaluation order).
    num_levels:
        Depth of the levelization (0 for a gate-free circuit).
    level_of:
        Net name -> level; sources (inputs, DFF Qs) are level 0 and a gate
        is ``1 + max(level of fanins)``.
    """

    circuit: Circuit
    slot_of: Dict[str, int]
    net_names: List[str]
    input_slots: List[int]
    output_slots: List[int]
    state_items: List[Tuple[str, int, int]]
    dff_d_slots: List[Tuple[str, int]]
    ops: List[PackedOp]
    num_levels: int
    level_of: Dict[str, int]

    @property
    def num_slots(self) -> int:
        return len(self.net_names)

    def run(self, values: List[int], mask: int) -> None:
        """Evaluate the program in place over ``values`` (one word per slot)."""
        for kind, fold, invert, out, ins in self.ops:  # hot-loop
            if kind == FOLD:
                slots = iter(ins)
                word = values[next(slots)]
                for slot in slots:
                    word = fold(word, values[slot])
            elif kind == MUX:
                sel_slot, d0, d1 = ins
                sel = values[sel_slot]
                word = (values[d0] & ~sel) | (values[d1] & sel)
            else:
                word = 0
            if invert:
                word ^= mask
            values[out] = word


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile ``circuit`` into a :class:`CompiledCircuit`.

    Raises :class:`CircuitError` for combinational cycles (via
    :meth:`Circuit.topological_order`) and for gate fanins with no driver
    (where the scalar simulator would fail at evaluation time instead).
    Under ``REPRO_CHECK_KERNELS=1`` the op list is checked by
    :func:`repro.check.program.verify_compiled`, which raises
    :class:`repro.check.program.KernelVerificationError` (a
    :class:`CircuitError`).
    """
    slot_of: Dict[str, int] = {}
    net_names: List[str] = []

    def allocate(net: str) -> int:
        slot = len(net_names)
        slot_of[net] = slot
        net_names.append(net)
        return slot

    input_slots = [allocate(net) for net in circuit.inputs]
    state_items = [(q, allocate(q), ff.init) for q, ff in circuit.dffs.items()]

    order = circuit.topological_order()
    for out in order:
        allocate(out)

    level_of: Dict[str, int] = {net: 0 for net in circuit.inputs}
    level_of.update({q: 0 for q in circuit.dffs})
    ops: List[PackedOp] = []
    for out in order:
        gate = circuit.gates[out]
        in_slots = []
        level = 0
        for src in gate.inputs:
            if src not in slot_of:
                raise CircuitError(
                    f"gate {out!r} reads net {src!r} which has no driver"
                )
            in_slots.append(slot_of[src])
            level = max(level, level_of[src])
        level_of[out] = level + 1
        kind, fold, invert = _LOWERING[gate.gtype]
        ops.append(PackedOp(kind, fold, invert, slot_of[out], tuple(in_slots)))
    ops.sort(key=lambda op: (level_of[net_names[op.out_slot]], op.out_slot))

    output_slots = []
    for net in circuit.outputs:
        if net not in slot_of:
            raise CircuitError(f"primary output {net!r} has no driver")
        output_slots.append(slot_of[net])

    dff_d_slots = []
    for q, ff in circuit.dffs.items():
        if ff.d not in slot_of:
            raise CircuitError(f"DFF {q!r} reads net {ff.d!r} which has no driver")
        dff_d_slots.append((q, slot_of[ff.d]))

    compiled = CompiledCircuit(
        circuit=circuit,
        slot_of=slot_of,
        net_names=net_names,
        input_slots=input_slots,
        output_slots=output_slots,
        state_items=state_items,
        dff_d_slots=dff_d_slots,
        ops=ops,
        num_levels=max(level_of.values(), default=0),
        level_of=level_of,
    )
    if os.environ.get("REPRO_CHECK_KERNELS", "") == "1":
        from repro.check.program import verify_compiled

        verify_compiled(compiled)
    return compiled
