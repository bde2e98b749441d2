"""Combinational logic simulation.

Evaluation is levelized: the circuit's combinational gates are topologically
sorted once and then evaluated in order for each input assignment.  This is
the inner loop of the sequential simulator, of the oracle used by the
SAT-style attacks, and of the switching-activity estimate in the overhead
model, so it is kept simple and allocation-light.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import GATE_EVAL


def evaluate_combinational(
    circuit: Circuit,
    input_values: Mapping[str, int],
    state_values: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """Evaluate all combinational gates of ``circuit`` once.

    Parameters
    ----------
    circuit:
        The circuit to evaluate.
    input_values:
        Values (0/1) for every primary input, including key inputs.
    state_values:
        Values for every flip-flop Q net.  May be omitted for purely
        combinational circuits.

    Returns
    -------
    dict
        Mapping from every net name (inputs, states, gate outputs) to its
        value.  DFF D nets appear through the gate that drives them.
    """
    values: Dict[str, int] = {}
    for net in circuit.inputs:
        try:
            values[net] = int(input_values[net]) & 1
        except KeyError as exc:
            raise CircuitError(f"missing value for primary input {net!r}") from exc
    state_values = state_values or {}
    for q, ff in circuit.dffs.items():
        values[q] = int(state_values.get(q, ff.init)) & 1

    for out in circuit.topological_order():
        gate = circuit.gates[out]
        operands = [values[i] for i in gate.inputs]
        values[out] = GATE_EVAL[gate.gtype](operands)
    return values


class CombinationalSimulator:
    """Reusable combinational simulator with a cached evaluation order.

    Building the topological order is O(gates); for attacks that evaluate the
    same circuit thousands of times (DIP loops, random equivalence checks)
    caching it is a significant win.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._order: List[str] = circuit.topological_order()
        self._packed = None  # lazily-built repro.engine PackedSimulator

    def refresh(self) -> None:
        """Recompute the evaluation order after the circuit was mutated."""
        self._order = self.circuit.topological_order()
        self._packed = None

    def packed(self):
        """The engine-backed bit-parallel simulator for this circuit.

        Built lazily (compiling the flat program costs one pass over the
        gates) and invalidated by :meth:`refresh`.  The batch methods below
        delegate to it.
        """
        if self._packed is None:
            from repro.engine.packed import PackedSimulator

            self._packed = PackedSimulator(self.circuit)
        return self._packed

    def evaluate(
        self,
        input_values: Mapping[str, int],
        state_values: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """Evaluate the circuit; same contract as :func:`evaluate_combinational`."""
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

    # ------------------------------------------------------------------ #
    # batch entry points (delegate to the bit-parallel engine)
    # ------------------------------------------------------------------ #
    def evaluate_batch(self, input_vectors, state_vectors=None) -> List[Dict[str, int]]:
        """Evaluate N vectors in one packed pass; one full value map each.

        ``state_vectors`` may be one mapping (broadcast to every vector) or
        exactly one mapping per vector (:class:`ValueError` otherwise);
        absent state bits default to ``ff.init``, exactly as in
        :meth:`evaluate`.
        """
        return self.packed().evaluate_batch(input_vectors, state_vectors)

    def outputs_batch(self, input_vectors, state_vectors=None) -> List[Dict[str, int]]:
        """Batched :meth:`outputs`: one primary-output dict per vector."""
        return self.packed().outputs_batch(input_vectors, state_vectors)

    def next_state_batch(self, input_vectors, state_vectors=None) -> List[Dict[str, int]]:
        """Batched :meth:`next_state`: one next-state dict per vector."""
        return self.packed().next_state_batch(input_vectors, state_vectors)


def toggle_counts(
    circuit: Circuit,
    input_vectors: Sequence[Mapping[str, int]],
    *,
    initial_state: Optional[Mapping[str, int]] = None,
    engine: str = "packed",
) -> Dict[str, int]:
    """Count output toggles of every net over a sequence of input vectors.

    Used by the overhead model to estimate dynamic (switching) power.  The
    circuit is simulated cycle by cycle (flip-flops advance each vector) and
    the number of value changes per net is accumulated.

    ``engine="packed"`` (the default) runs the compiled flat program from
    :mod:`repro.engine` and counts toggles in bulk over per-net value
    histories; ``engine="scalar"`` keeps the original dict-based loop as the
    reference implementation.  Both produce identical counts.
    """
    from repro.engine.packed import parse_engine

    if parse_engine(engine):
        from repro.engine.equivalence import packed_toggle_counts

        return packed_toggle_counts(circuit, input_vectors, initial_state=initial_state)
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
