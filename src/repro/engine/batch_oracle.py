"""Batched oracle adapters.

Drop-in replacements for the scalar oracles in :mod:`repro.attacks.oracle`
that answer N queries per call through the packed engine while preserving
the query-count accounting (``queries`` counts *logical* queries, i.e. one
per vector / sequence, exactly as the attack-cost tables expect — batching
is an implementation detail of the simulator, not of the threat model).

Both classes subclass their scalar counterpart, so every attack written
against the scalar oracle API keeps working and picks up the fast path by
constructing the batched variant instead.  Batches wider than one packed
word are tiled by the simulator (see :data:`repro.engine.packed.TILE_WIDTH`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.attacks.oracle import CombinationalOracle, SequentialOracle
from repro.engine.packed import PackedSimulator, pack_vectors
from repro.netlist.circuit import Circuit


class BatchedCombinationalOracle(CombinationalOracle):
    """Scan-access oracle answering whole batches of vectors per call."""

    def __init__(self, original: Circuit) -> None:
        super().__init__(original)
        self._packed = PackedSimulator(self.view)

    def query(self, assignment: Mapping[str, int]) -> Dict[str, int]:
        """Scalar query, served by the packed engine (width-1 batch)."""
        return self.query_batch([assignment])[0]

    def query_batch(
        self, assignments: Sequence[Mapping[str, int]]
    ) -> List[Dict[str, int]]:
        """Apply N input/state vectors in one packed pass.

        Missing nets default to 0 per lane, matching the scalar oracle's
        ``assignment.get(net, 0)`` coercion.  ``queries`` advances by N.
        """
        self.queries += len(assignments)
        if not assignments:
            return []
        vectors = [
            {net: int(a.get(net, 0)) & 1 for net in self.view.inputs}
            for a in assignments
        ]
        return self._packed.outputs_batch(vectors)


class BatchedSequentialOracle(SequentialOracle):
    """Reset-and-run oracle simulating N independent sequences as lanes."""

    def __init__(self, original: Circuit) -> None:
        super().__init__(original)
        self._packed = PackedSimulator(original)

    def query(
        self, input_sequence: Sequence[Mapping[str, int]]
    ) -> List[Dict[str, int]]:
        """Scalar query, served by the packed engine (single lane)."""
        return self.query_batch([input_sequence])[0]

    def query_batch(
        self, sequences: Sequence[Sequence[Mapping[str, int]]]
    ) -> List[List[Dict[str, int]]]:
        """Reset N chips and run one input sequence per lane, in lockstep.

        Sequences may have different lengths: every lane steps until the
        longest sequence ends (short lanes see all-zero inputs once
        exhausted, and those surplus outputs are discarded), so each result
        list has exactly the length of its input sequence.  ``queries``
        advances by N and ``cycles`` by the total number of input vectors.
        N is unbounded — batches wider than one packed word are split into
        tiles by the simulator (see :data:`repro.engine.packed.TILE_WIDTH`).
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
