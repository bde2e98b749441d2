"""Circuit statistics used for reporting and overhead accounting."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

from repro.netlist.circuit import Circuit


@dataclass(frozen=True)
class CircuitStats:
    """Structural statistics of a circuit.

    Attributes
    ----------
    name: circuit name.
    num_inputs / num_key_inputs / num_outputs: port counts.
    num_gates: combinational gate count.
    num_dffs: flip-flop count.
    num_cells: gates + DFFs (the "cell count" reported in Figure 4c).
    num_ios: primary inputs + outputs, including key inputs (Figure 4d).
    logic_depth: longest combinational path measured in gates.
    gate_histogram: per-gate-type counts.
    """

    name: str
    num_inputs: int
    num_key_inputs: int
    num_outputs: int
    num_gates: int
    num_dffs: int
    num_cells: int
    num_ios: int
    logic_depth: int
    gate_histogram: Dict[str, int] = field(default_factory=dict)


def logic_depth(circuit: Circuit) -> int:
    """Longest combinational path (in gate count) from any source to any sink."""
    depth: Dict[str, int] = {}
    for net in circuit.inputs:
        depth[net] = 0
    for q in circuit.dffs:
        depth[q] = 0
    longest = 0
    for out in circuit.topological_order():
        gate = circuit.gates[out]
        d = 1 + max((depth.get(i, 0) for i in gate.inputs), default=0)
        depth[out] = d
        longest = max(longest, d)
    return longest


def circuit_stats(circuit: Circuit) -> CircuitStats:
    """Compute :class:`CircuitStats` for ``circuit``."""
    histogram = Counter(gate.gtype.value for gate in circuit.gates.values())
    return CircuitStats(
        name=circuit.name,
        num_inputs=len(circuit.inputs),
        num_key_inputs=len(circuit.key_inputs),
        num_outputs=len(circuit.outputs),
        num_gates=len(circuit.gates),
        num_dffs=len(circuit.dffs),
        num_cells=len(circuit.gates) + len(circuit.dffs),
        num_ios=len(circuit.inputs) + len(circuit.outputs),
        logic_depth=logic_depth(circuit),
        gate_histogram=dict(histogram),
    )
