"""Counter insertion.

Both Cute-Lock variants synchronise their keys with a small free-running
counter embedded in the design (Section III of the paper: the counter value
``c`` determines *when* each key value must be provided).  This module adds
such a counter to an existing netlist and also produces the per-value decode
signals ("counter == t") that the MUX tree's upper layers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.locking.base import LockingError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType


@dataclass(frozen=True)
class CounterInfo:
    """Nets created by :func:`insert_counter`.

    Attributes
    ----------
    period:
        The counter counts 0, 1, …, period-1 and then wraps (or holds, see
        ``saturate``).
    state_nets:
        Counter flip-flop Q nets, LSB first.
    decode_nets:
        ``decode_nets[t]`` is true exactly when the counter value is ``t``.
    saturate:
        Whether the counter holds at ``period - 1`` instead of wrapping.
    """

    period: int
    state_nets: List[str] = field(default_factory=list)
    decode_nets: List[str] = field(default_factory=list)
    saturate: bool = False

    @property
    def width(self) -> int:
        return len(self.state_nets)


def insert_counter(
    circuit: Circuit,
    period: int,
    *,
    prefix: str = "clcnt",
    saturate: bool = False,
) -> CounterInfo:
    """Insert a modulo-``period`` counter into ``circuit``.

    The counter has ``ceil(log2(period))`` flip-flops (at least 1), resets to
    0, increments every clock cycle and wraps to 0 after ``period - 1``
    (or holds there when ``saturate`` is set — the ablation
    ``benchmarks/bench_ablation_counter.py`` measures).  Per-value decode
    nets are also created.

    Returns a :class:`CounterInfo` describing the new nets.
    """
    if period < 1:
        raise LockingError("counter period must be at least 1")
    width = max(1, (period - 1).bit_length())

    state_nets = [f"{prefix}_q{i}" for i in range(width)]
    for net in state_nets:
        if circuit.drives(net):
            raise LockingError(f"counter net {net!r} already exists in the circuit")

    inverted: Dict[str, str] = {}

    def inv(net: str) -> str:
        if net not in inverted:
            inv_net = circuit.fresh_net(f"{prefix}_n")
            circuit.add_gate(inv_net, GateType.NOT, [net])
            inverted[net] = inv_net
        return inverted[net]

    # Terminal-count detection (counter == period-1) used for wrap/hold.
    terminal_terms = [
        q_net if (period - 1) >> bit & 1 else inv(q_net)
        for bit, q_net in enumerate(state_nets)
    ]
    terminal_net = circuit.fresh_net(f"{prefix}_term")
    if len(terminal_terms) == 1:
        circuit.add_gate(terminal_net, GateType.BUF, [terminal_terms[0]])
    else:
        circuit.add_gate(terminal_net, GateType.AND, terminal_terms)

    # Ripple-carry increment: next[i] = q[i] XOR carry[i] with carry-in 1.
    carry_net = None  # None encodes a constant-1 carry into bit 0
    increment_nets: List[str] = []
    for bit, q_net in enumerate(state_nets):
        if carry_net is None:
            next_net = inv(q_net)
            new_carry = q_net
        else:
            next_net = circuit.fresh_net(f"{prefix}_sum{bit}")
            circuit.add_gate(next_net, GateType.XOR, [q_net, carry_net])
            new_carry = circuit.fresh_net(f"{prefix}_carry{bit}")
            circuit.add_gate(new_carry, GateType.AND, [q_net, carry_net])
        increment_nets.append(next_net)
        carry_net = new_carry

    # Wrap / saturate at the terminal count, then create the flip-flops.
    for bit, q_net in enumerate(state_nets):
        if saturate:
            # Hold the terminal value: D = terminal ? q : incremented.
            d_net = circuit.fresh_net(f"{prefix}_hold{bit}")
            circuit.add_gate(d_net, GateType.MUX, [terminal_net, increment_nets[bit], q_net])
        else:
            # Wrap to zero: D = incremented AND NOT terminal.
            d_net = circuit.fresh_net(f"{prefix}_next{bit}")
            circuit.add_gate(d_net, GateType.AND, [increment_nets[bit], inv(terminal_net)])
        circuit.add_dff(q_net, d_net, init=0)

    # Per-value decode nets ("counter == value").
    decode_nets: List[str] = []
    for value in range(period):
        terms = [
            q_net if (value >> bit) & 1 else inv(q_net)
            for bit, q_net in enumerate(state_nets)
        ]
        decode_net = circuit.fresh_net(f"{prefix}_is{value}")
        if len(terms) == 1:
            circuit.add_gate(decode_net, GateType.BUF, [terms[0]])
        else:
            circuit.add_gate(decode_net, GateType.AND, terms)
        decode_nets.append(decode_net)

    return CounterInfo(
        period=period, state_nets=state_nets, decode_nets=decode_nets, saturate=saturate
    )
