"""Oracle models, answered by the packed engine.

Oracle-guided attacks assume the attacker owns a *working chip* bought off
the market.  Two observability models are used in the literature and in the
paper's evaluation:

* **scan access** (:class:`BatchedCombinationalOracle`) — the attacker can
  shift an arbitrary state into the scan chain, apply one vector, and
  observe both the primary outputs and the captured next state.  This
  reduces the sequential problem to a combinational one.
* **no scan access** (:class:`BatchedSequentialOracle`) — the attacker can
  only reset the chip, apply an input *sequence* and observe the output
  sequence (the model used by the BMC/KC2/RANE sequential attacks).

The oracles wrap the *original* circuit: a functional chip behaves exactly
like the unlocked design.  Both answer N queries per call through one
packed pass; ``queries`` still counts *logical* queries (one per vector /
sequence), the standard attack-cost metric the tables report — batching is
an implementation detail of the simulator, not of the threat model.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.engine.packed import PackedSimulator, pack_vectors
from repro.netlist.circuit import Circuit


class BatchedCombinationalOracle:
    """Scan-access oracle answering whole batches of vectors per call."""

    def __init__(self, original: Circuit) -> None:
        self.circuit = original
        self.view = original.combinational_view() if original.dffs else original
        self.queries = 0
        self._packed = PackedSimulator(self.view)

    @property
    def input_nets(self) -> List[str]:
        """Nets the attacker controls: primary inputs plus scanned-in state."""
        return list(self.view.inputs)

    @property
    def output_nets(self) -> List[str]:
        """Nets the attacker observes: primary outputs plus captured state."""
        return list(self.view.outputs)

    def query(self, assignment: Mapping[str, int]) -> Dict[str, int]:
        """Apply one input/state vector and return the observed response.

        The response maps every net in :attr:`output_nets` to its value.
        For a sequential circuit attacked through the scan chain this covers
        both the primary outputs *and* the captured next state — the latter
        appears as the ``<q>__ns`` pseudo-outputs of the combinational view
        (see :meth:`Circuit.combinational_view`), not under the Q net names.
        For a purely combinational circuit the response is exactly the
        primary outputs.  Missing nets in ``assignment`` default to 0.
        """
        return self.query_batch([assignment])[0]

    def query_batch(
        self, assignments: Sequence[Mapping[str, int]]
    ) -> List[Dict[str, int]]:
        """Apply N input/state vectors in one packed pass.

        Missing nets default to 0 per lane.  ``queries`` advances by N.
        """
        self.queries += len(assignments)
        if not assignments:
            return []
        vectors = [
            {net: int(a.get(net, 0)) & 1 for net in self.view.inputs}
            for a in assignments
        ]
        return self._packed.outputs_batch(vectors)


class BatchedSequentialOracle:
    """Reset-and-run oracle simulating N independent sequences as lanes."""

    def __init__(self, original: Circuit) -> None:
        self.circuit = original
        self.queries = 0
        self.cycles = 0
        self._packed = PackedSimulator(original)

    @property
    def input_nets(self) -> List[str]:
        return list(self.circuit.inputs)

    @property
    def output_nets(self) -> List[str]:
        return list(self.circuit.outputs)

    def query(
        self, input_sequence: Sequence[Mapping[str, int]]
    ) -> List[Dict[str, int]]:
        """Reset the chip, apply ``input_sequence`` and return per-cycle outputs."""
        return self.query_batch([input_sequence])[0]

    def query_batch(
        self, sequences: Sequence[Sequence[Mapping[str, int]]]
    ) -> List[List[Dict[str, int]]]:
        """Reset N chips and run one input sequence per lane, in lockstep.

        Sequences may have different lengths: every lane steps until the
        longest sequence ends (short lanes see all-zero inputs once
        exhausted, and those surplus outputs are discarded), so each result
        list has exactly the length of its input sequence.  Missing nets
        default to 0.  ``queries`` advances by N and ``cycles`` by the total
        number of input vectors.
        """
        self.queries += len(sequences)
        self.cycles += sum(len(seq) for seq in sequences)
        lanes = len(sequences)
        if lanes == 0:
            return []
        horizon = max(len(seq) for seq in sequences)
        results: List[List[Dict[str, int]]] = [[] for _ in sequences]
        if horizon == 0:
            return results
        inputs = self.circuit.inputs
        state = self._packed.initial_state_words(lanes)
        empty: Mapping[str, int] = {}
        for t in range(horizon):
            cycle_vectors = [
                {net: int(vec.get(net, 0)) & 1 for net in inputs}
                for vec in (seq[t] if t < len(seq) else empty for seq in sequences)
            ]
            input_words = pack_vectors(cycle_vectors, inputs)
            out_words, state = self._packed.step_words(input_words, state, width=lanes)
            for lane, seq in enumerate(sequences):
                if t < len(seq):
                    results[lane].append(
                        {net: (out_words[net] >> lane) & 1 for net in self.circuit.outputs}
                    )
        return results
