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
like the unlocked design.  A one-lane word is just a net's 0/1 value, so
each query is answered by one-lane packed passes over the vector itself,
with no transpose; AppSAT's settle samples ask for many vectors at once as
lane words (:meth:`BatchedCombinationalOracle.query_words`).  ``queries``
counts *logical* queries (one per vector / sequence), the standard
attack-cost metric the tables report.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.engine.packed import PackedSimulator
from repro.netlist.circuit import Circuit


class BatchedCombinationalOracle:
    """Scan-access oracle answering one vector, or lanes of vectors, per call."""

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
        return self.query_words(assignment, 1)

    def query_words(self, input_words: Mapping[str, int], width: int) -> Dict[str, int]:
        """Apply ``width`` vectors given as lane words; one word per output net.

        Missing nets are 0 in every lane.  ``queries`` advances by ``width``.
        """
        self.queries += width
        words = {net: input_words.get(net, 0) for net in self.view.inputs}
        return self._packed.output_words(words, width=width)


class BatchedSequentialOracle:
    """Reset-and-run oracle answering one input sequence per call."""

    def __init__(self, original: Circuit) -> None:
        self.circuit = original
        self.queries = 0
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
        """Reset the chip, apply ``input_sequence`` and return per-cycle outputs.

        Each cycle is one one-lane packed clock edge.  Missing nets default
        to 0.  ``queries`` advances by one.
        """
        self.queries += 1
        inputs = self.circuit.inputs
        state: Optional[Dict[str, int]] = None
        responses: List[Dict[str, int]] = []
        for vector in input_sequence:
            words = {net: vector.get(net, 0) for net in inputs}
            outputs, state = self._packed.step_words(words, state, width=1)
            responses.append(outputs)
        return responses
