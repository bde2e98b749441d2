"""Synthesis of FSMs (STGs) into gate-level circuits.

This is the reproduction's stand-in for the Vivado synthesis step of the
paper's behavioural flow: a locked (or original) STG is turned into a
sequential netlist that the attacks and the overhead model can consume.

There is one path, in three steps: :func:`fsm_truth_tables` tabulates one
truth table per next-state and output bit (unused state codes are
don't-cares), :func:`sop_cover` minimises each table into a two-level
sum-of-products cover (Quine–McCluskey), and :func:`emit_fsm` turns the
covers into the ``in_*``/``state_*``/``out_*`` netlist.  Cute-Lock-Beh
emits the same covers into its locked netlist and its oracle.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.fsm.encoding import StateEncoding, binary_encoding
from repro.fsm.minimize import Implicant, quine_mccluskey
from repro.fsm.stg import FSM, FSMError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType

#: A minimised single-output function: a constant 0/1 or an SOP cover.
Cover = Union[int, List[Implicant]]


class TruthTable:
    """A single-output Boolean function over ``num_vars`` variables.

    The on-set and care-set are stored as integer bitmasks indexed by the
    packed input assignment (variable 0 = LSB).
    """

    def __init__(self, num_vars: int, onset: int = 0, careset: Optional[int] = None) -> None:
        self.num_vars = num_vars
        self.size = 1 << num_vars
        self.onset = onset
        self.careset = careset if careset is not None else (1 << self.size) - 1

    @classmethod
    def from_function(cls, num_vars: int, func: Callable[[int], Optional[int]]) -> "TruthTable":
        """Build from a callable returning 0, 1 or ``None`` (don't care)."""
        onset = 0
        careset = 0
        for row in range(1 << num_vars):
            value = func(row)
            if value is None:
                continue
            careset |= 1 << row
            if value:
                onset |= 1 << row
        return cls(num_vars, onset, careset)

    def minterms(self) -> List[int]:
        return [r for r in range(self.size) if (self.careset >> r) & 1 and (self.onset >> r) & 1]

    def dont_cares(self) -> List[int]:
        return [r for r in range(self.size) if not (self.careset >> r) & 1]

    def is_constant(self) -> Optional[int]:
        """0/1 if every care row has that value, else None."""
        ones = self.onset & self.careset
        if not ones:
            return 0
        if ones == self.careset:
            return 1
        return None


def sop_cover(table: TruthTable) -> Cover:
    """Minimise ``table``: its constant, or a Quine–McCluskey SOP cover."""
    constant = table.is_constant()
    if constant is not None:
        return constant
    return quine_mccluskey(table.minterms(), table.num_vars, dont_cares=table.dont_cares())


def emit_cover(circuit: Circuit, cover: Cover, input_nets: Sequence[str], prefix: str) -> str:
    """Emit ``cover`` (from :func:`sop_cover`) into ``circuit``; returns the driving net.

    ``input_nets[i]`` is the net of variable ``i``.  A constant becomes a
    CONST gate, a cover NOT/AND/OR gates (a one-term cover ends in a BUF).
    """
    if isinstance(cover, int):
        net = circuit.fresh_net(f"{prefix}_const{cover}")
        circuit.add_gate(net, GateType.CONST1 if cover else GateType.CONST0, [])
        return net
    inverted: Dict[str, str] = {}

    def inverted_net(net: str) -> str:
        if net not in inverted:
            inv = circuit.fresh_net(f"{prefix}_not")
            circuit.add_gate(inv, GateType.NOT, [net])
            inverted[net] = inv
        return inverted[net]

    term_nets: List[str] = []
    for implicant in cover:
        nets = [
            input_nets[var] if positive else inverted_net(input_nets[var])
            for var, positive in implicant.literals()
        ]
        if len(nets) == 1:
            term_nets.append(nets[0])
        else:
            term = circuit.fresh_net(f"{prefix}_and")
            circuit.add_gate(term, GateType.AND, nets)
            term_nets.append(term)
    if len(term_nets) == 1:
        result = circuit.fresh_net(f"{prefix}_buf")
        circuit.add_gate(result, GateType.BUF, [term_nets[0]])
        return result
    result = circuit.fresh_net(f"{prefix}_or")
    circuit.add_gate(result, GateType.OR, term_nets)
    return result


# --------------------------------------------------------------------------- #
# FSM synthesis
# --------------------------------------------------------------------------- #
def fsm_truth_tables(
    fsm: FSM,
    encoding: StateEncoding,
    wrongful: Optional[Mapping[Tuple[str, int], str]] = None,
) -> Tuple[List[TruthTable], List[TruthTable], List[TruthTable]]:
    """Per-bit truth tables of ``fsm`` under ``encoding``.

    Variable order: the state bits are the low variables, the inputs the
    high ones, so row ``r`` is state code ``r % 2**width`` under input value
    ``r >> width``; rows of unused codes are don't-cares.  Returns the
    next-state tables (one per state bit), the output tables (one per output
    bit) and the next-state tables under ``wrongful``, which maps
    ``(state, input value)`` to another next state (pairs it leaves out keep
    the correct one); the last list is empty when ``wrongful`` is None.
    """
    width = encoding.width
    num_vars = width + fsm.num_inputs
    code_of_state: Dict[str, int] = {s: encoding.code_of(s) for s in fsm.states}
    state_of_code: Dict[int, str] = {}
    for state, code in code_of_state.items():
        if code in state_of_code:
            raise FSMError(f"encoding maps two states to code {code}")
        state_of_code[code] = state

    # (next code, output value, wrongful next code) per row; None if unused.
    rows: List[Optional[Tuple[int, int, int]]] = []
    for row in range(1 << num_vars):
        state = state_of_code.get(row & ((1 << width) - 1))
        if state is None:
            rows.append(None)
            continue
        value = row >> width
        next_state, out = fsm.next(state, value)
        wrong_next = wrongful.get((state, value), next_state) if wrongful else next_state
        rows.append((code_of_state[next_state], out, code_of_state[wrong_next]))

    def tables(field: int, bits: int) -> List[TruthTable]:
        return [
            TruthTable.from_function(
                num_vars,
                lambda row, bit=bit: None if rows[row] is None else (rows[row][field] >> bit) & 1,
            )
            for bit in range(bits)
        ]

    wrongful_tables = tables(2, width) if wrongful is not None else []
    return tables(0, width), tables(1, fsm.num_outputs), wrongful_tables


def emit_fsm(
    fsm: FSM,
    encoding: StateEncoding,
    next_covers: Sequence[Cover],
    output_covers: Sequence[Cover],
) -> Circuit:
    """The netlist of ``fsm`` from its next-state and output covers.

    Primary inputs ``in_0 … in_{n-1}`` (LSB first), one DFF per state bit
    named ``state_0 …`` and reset to the reset state's code, and primary
    outputs ``out_0 … out_{m-1}`` (LSB first).
    """
    circuit = Circuit(name=fsm.name)
    input_nets = [f"in_{i}" for i in range(fsm.num_inputs)]
    for net in input_nets:
        circuit.add_input(net)
    state_nets = [f"state_{i}" for i in range(encoding.width)]
    variable_nets = state_nets + input_nets
    reset_code = encoding.code_of(fsm.reset_state)

    for bit, (q_net, cover) in enumerate(zip(state_nets, next_covers)):
        d_net = emit_cover(circuit, cover, variable_nets, f"ns{bit}")
        circuit.add_dff(q_net, d_net, init=(reset_code >> bit) & 1)

    for bit, cover in enumerate(output_covers):
        driver = emit_cover(circuit, cover, variable_nets, f"o{bit}")
        out_net = f"out_{bit}"
        circuit.add_gate(out_net, GateType.BUF, [driver])
        circuit.add_output(out_net)
    return circuit


def synthesize_fsm(fsm: FSM, *, encoding: Optional[StateEncoding] = None) -> Circuit:
    """Synthesise a Mealy FSM into a sequential gate-level circuit.

    The netlist is :func:`emit_fsm`'s, with every next-state and output bit
    minimised by :func:`sop_cover`; ``encoding`` defaults to the dense
    binary one.
    """
    encoding = encoding or binary_encoding(fsm)
    next_tables, output_tables, _ = fsm_truth_tables(fsm, encoding)
    return emit_fsm(
        fsm, encoding,
        [sop_cover(table) for table in next_tables],
        [sop_cover(table) for table in output_tables],
    )
