"""Circuit -> flat levelized program compilation.

Compilation assigns every net a dense integer *slot* (primary inputs first,
then flip-flop Q pins, then gate outputs in topological order) and lowers
every gate to one bitwise operation over packed words.  Inversions (NOT,
NAND, NOR, XNOR, CONST1) are handled by XOR-ing with the batch mask
``(1 << width) - 1`` so the packed words never grow sign bits; the MUX
kernel ``(d0 & ~sel) | (d1 & sel)`` needs no mask because both data words
are already mask-confined.

The hot path is an ``exec``-generated kernel: one Python function whose body
is the straight-line sequence of slot assignments (chunked so pathological
circuits never hit compiler limits).  A table-driven interpreter over the
same op list is kept as a readable reference (``codegen=False``) and is what
the unit tests diff against the generated code.  Words are arbitrary-width
Python ints; :mod:`repro.engine.packed` evaluates wide batches per
``TILE_WIDTH``-lane tile.  The kernel source is verified structurally
*before* exec under ``REPRO_CHECK_KERNELS=1`` (always-on in the test suite).
"""

from __future__ import annotations

import importlib.util
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import GateType

#: Maximum number of ops lowered into one generated kernel function.
_KERNEL_CHUNK = 4096


def numpy_available() -> bool:
    """True when numpy is installed, probed without importing it.

    The engine does not use numpy; ``perfbench/worker.py`` records this in
    its environment report.
    """
    return importlib.util.find_spec("numpy") is not None


@dataclass(frozen=True)
class PackedOp:
    """One flat operation: evaluate a gate into its output slot."""

    gtype: GateType
    out_slot: int
    in_slots: Tuple[int, ...]
    level: int


def _op_expression(op: PackedOp) -> str:
    """Python expression computing ``op`` over the packed-word list ``v``."""
    ins = [f"v[{slot}]" for slot in op.in_slots]
    gtype = op.gtype
    if gtype is GateType.BUF:
        return ins[0]
    if gtype is GateType.NOT:
        return f"mask ^ {ins[0]}"
    if gtype is GateType.AND:
        return " & ".join(ins)
    if gtype is GateType.NAND:
        return f"mask ^ ({' & '.join(ins)})"
    if gtype is GateType.OR:
        return " | ".join(ins)
    if gtype is GateType.NOR:
        return f"mask ^ ({' | '.join(ins)})"
    if gtype is GateType.XOR:
        return " ^ ".join(ins)
    if gtype is GateType.XNOR:
        return f"mask ^ ({' ^ '.join(ins)})"
    if gtype is GateType.MUX:
        sel, d0, d1 = ins
        return f"({d0} & ~{sel}) | ({d1} & {sel})"
    if gtype is GateType.CONST0:
        return "0"
    if gtype is GateType.CONST1:
        return "mask"
    raise CircuitError(f"unsupported gate type {gtype!r}")  # pragma: no cover


def kernel_sources(ops: Sequence[PackedOp]) -> Iterator[Tuple[int, str]]:
    """Yield ``(start_index, source)`` per generated kernel chunk.

    The single source of the synthesized kernel text: both the exec path
    (:func:`_build_kernels`) and the pre-exec structural verifier
    (:func:`repro.check.program.verify_compiled`) consume this, so what is
    verified is byte-for-byte what runs.
    """
    for start in range(0, max(len(ops), 1), _KERNEL_CHUNK):
        lines = ["def _kernel(v, mask):"]
        chunk = ops[start:start + _KERNEL_CHUNK]
        for op in chunk:
            lines.append(f"    v[{op.out_slot}] = {_op_expression(op)}")
        if not chunk:
            lines.append("    pass")
        yield start, "\n".join(lines)


def _build_kernels(ops: Sequence[PackedOp]) -> List[Callable[[List[int], int], None]]:
    """exec-compile the op list into straight-line kernel functions."""
    kernels: List[Callable[[List[int], int], None]] = []
    for start, source in kernel_sources(ops):
        namespace: Dict[str, object] = {}
        exec(compile(source, f"<repro.engine kernel@{start}>", "exec"), namespace)
        kernels.append(namespace["_kernel"])  # type: ignore[arg-type]
    return kernels


def _interpret_op(op: PackedOp, values: List[int], mask: int) -> None:
    """Reference interpreter for one op (mirrors :func:`_op_expression`)."""
    gtype = op.gtype
    ins = op.in_slots
    if gtype is GateType.BUF:
        word = values[ins[0]]
    elif gtype is GateType.NOT:
        word = mask ^ values[ins[0]]
    elif gtype in (GateType.AND, GateType.NAND):
        word = mask
        for slot in ins:
            word &= values[slot]
        if gtype is GateType.NAND:
            word ^= mask
    elif gtype in (GateType.OR, GateType.NOR):
        word = 0
        for slot in ins:
            word |= values[slot]
        if gtype is GateType.NOR:
            word ^= mask
    elif gtype in (GateType.XOR, GateType.XNOR):
        word = 0
        for slot in ins:
            word ^= values[slot]
        if gtype is GateType.XNOR:
            word ^= mask
    elif gtype is GateType.MUX:
        sel, d0, d1 = (values[s] for s in ins)
        word = (d0 & ~sel) | (d1 & sel)
    elif gtype is GateType.CONST0:
        word = 0
    elif gtype is GateType.CONST1:
        word = mask
    else:  # pragma: no cover
        raise CircuitError(f"unsupported gate type {gtype!r}")
    values[op.out_slot] = word


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
    _kernels: List[Callable[[List[int], int], None]] = field(default_factory=list)

    @property
    def num_slots(self) -> int:
        return len(self.net_names)

    def run(self, values: List[int], mask: int) -> None:
        """Evaluate the program in place over ``values`` (one word per slot)."""
        if self._kernels:
            for kernel in self._kernels:
                kernel(values, mask)
        else:
            for op in self.ops:
                _interpret_op(op, values, mask)

    def run_interpreted(self, values: List[int], mask: int) -> None:
        """Reference evaluation path bypassing the generated kernels."""
        for op in self.ops:
            _interpret_op(op, values, mask)


def compile_circuit(
    circuit: Circuit,
    *,
    codegen: bool = True,
    verify: Optional[bool] = None,
) -> CompiledCircuit:
    """Compile ``circuit`` into a :class:`CompiledCircuit`.

    Raises :class:`CircuitError` for combinational cycles (via
    :meth:`Circuit.topological_order`) and for gate fanins with no driver
    (where the scalar simulator would fail at evaluation time instead).

    ``verify=True`` runs :func:`repro.check.program.verify_compiled` over
    the generated kernel source *before* it is ``exec``-ed, raising
    :class:`repro.check.program.KernelVerificationError` (a
    :class:`CircuitError`) if the program is not straight-line, levelized,
    bitwise-only code.  The default ``None`` defers to the
    ``REPRO_CHECK_KERNELS=1`` environment flag (always set by the test
    suite, opt-in at runtime).
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
        level_of[out] = level + 1 if gate.inputs else 1
        ops.append(
            PackedOp(
                gtype=gate.gtype,
                out_slot=slot_of[out],
                in_slots=tuple(in_slots),
                level=level_of[out],
            )
        )
    ops.sort(key=lambda op: (op.level, op.out_slot))

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
        num_levels=max((op.level for op in ops), default=0),
        level_of=level_of,
    )
    if codegen:
        if verify is None:
            verify = os.environ.get("REPRO_CHECK_KERNELS", "") == "1"
        if verify:
            from repro.check.program import verify_compiled

            verify_compiled(compiled)
        compiled._kernels = _build_kernels(ops)
    return compiled
