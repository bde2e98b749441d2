"""Combinational logic simulation: the scalar reference.

Evaluation is levelized: the circuit's combinational gates are topologically
sorted once and then evaluated in order for each input assignment, one
vector at a time.  This is the inner loop of the scalar sequential
simulator and the reference that the property tests diff the packed engine
(:mod:`repro.engine`) against; the attacks' oracles and the overhead
model's switching activity run on the engine.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import GATE_EVAL


class CombinationalSimulator:
    """Reusable combinational simulator with a cached evaluation order.

    Building the topological order is O(gates), so it is computed once and
    reused by every evaluation of the circuit (each cycle of a sequential
    run, each vector of a reference sweep).
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._order: List[str] = circuit.topological_order()

    def refresh(self) -> None:
        """Recompute the evaluation order after the circuit was mutated."""
        self._order = self.circuit.topological_order()

    def evaluate(
        self,
        input_values: Mapping[str, int],
        state_values: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """Evaluate all combinational gates once.

        ``input_values`` holds a 0/1 value for every primary input, including
        key inputs (:class:`CircuitError` when one is missing);
        ``state_values`` holds flip-flop Q values, defaulting to each
        ``ff.init``.  Returns every net's value (inputs, states, gate
        outputs); DFF D nets appear through the gate that drives them.
        """
        circuit = self.circuit
        values: Dict[str, int] = {}
        for net in circuit.inputs:
            try:
                values[net] = int(input_values[net]) & 1
            except KeyError as exc:
                raise CircuitError(f"missing value for primary input {net!r}") from exc
        state_values = state_values or {}
        for q, ff in circuit.dffs.items():
            values[q] = int(state_values.get(q, ff.init)) & 1
        gates = circuit.gates
        for out in self._order:
            gate = gates[out]
            operands = [values[i] for i in gate.inputs]
            values[out] = GATE_EVAL[gate.gtype](operands)
        return values

    def outputs(
        self,
        input_values: Mapping[str, int],
        state_values: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """Evaluate and return only the primary output values."""
        values = self.evaluate(input_values, state_values)
        return {net: values[net] for net in self.circuit.outputs}

    def next_state(
        self,
        input_values: Mapping[str, int],
        state_values: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """Evaluate and return the next-state values (DFF D nets keyed by Q)."""
        values = self.evaluate(input_values, state_values)
        return {q: values[ff.d] for q, ff in self.circuit.dffs.items()}


def toggle_counts(
    circuit: Circuit,
    input_vectors: Sequence[Mapping[str, int]],
    *,
    initial_state: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """Count output toggles of every net over a sequence of input vectors.

    Used by the overhead model to estimate dynamic (switching) power.  The
    circuit is simulated cycle by cycle (flip-flops advance each vector) on
    the packed engine, and the number of value changes per net is counted
    in bulk over per-net value histories.
    """
    from repro.engine.equivalence import packed_toggle_counts

    return packed_toggle_counts(circuit, input_vectors, initial_state=initial_state)


def scalar_toggle_counts(
    circuit: Circuit,
    input_vectors: Sequence[Mapping[str, int]],
    *,
    initial_state: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """Reference :func:`toggle_counts`: one dict-based evaluation per cycle."""
    sim = CombinationalSimulator(circuit)
    state = {q: ff.init for q, ff in circuit.dffs.items()}
    if initial_state:
        state.update({q: int(v) & 1 for q, v in initial_state.items()})
    previous: Dict[str, int] = {}
    toggles: Dict[str, int] = {}
    for vector in input_vectors:
        values = sim.evaluate(vector, state)
        for net, value in values.items():
            if net in previous and previous[net] != value:
                toggles[net] = toggles.get(net, 0) + 1
            previous[net] = value
        state = {q: values[circuit.dffs[q].d] for q in circuit.dffs}
    return toggles
