"""The packed bit-parallel runtime.

Vectors are *transposed*: instead of one dict of 0/1 values per vector, the
engine keeps one arbitrary-width Python int per net, where bit ``j`` holds
the net's value under vector ``j`` (lane ``j``).  The helpers at the top of
this module convert between the two layouts; :class:`PackedSimulator` runs
the compiled flat program over the word layout.

The batch entry points (``evaluate_batch`` / ``outputs_batch`` /
``next_state_batch``) mirror the scalar :class:`~repro.sim.logicsim.\
CombinationalSimulator` contract vector-for-vector, including the missing-
input :class:`~repro.netlist.circuit.CircuitError` and the ``ff.init``
default for absent state bits, so the two simulators are interchangeable and
can be diffed bit-for-bit.  A per-lane state list must hold exactly one
mapping per input vector (:class:`ValueError` otherwise).

Batches of arbitrary width are supported through *multi-word tiling*: a pass
wider than :data:`TILE_WIDTH` lanes is split transparently into word-sized
tiles, each evaluated as its own packed pass, and the per-tile results are
stitched back into full-width words.  Tiling keeps every intermediate word
inside CPython's fast fixed-digit-count big-int range instead of letting
one enormous int flow through every gate, and callers never see it: the
word-level and batch APIs accept any width / batch size.
"""

from __future__ import annotations

import os
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.compiler import CompiledCircuit, compile_circuit
from repro.netlist.circuit import Circuit, CircuitError

#: Per-lane state: either one mapping broadcast to every lane, or one
#: mapping per lane.
StateArg = Optional[Union[Mapping[str, int], Sequence[Mapping[str, int]]]]

#: Lane count above which a packed pass is split into word-sized tiles.
TILE_WIDTH = 128

#: ``engine=`` values of the :mod:`repro.sim` routers, see :func:`parse_engine`.
ENGINE_CHOICES = ("packed", "scalar")


def parse_engine(engine: str) -> bool:
    """Validate a :mod:`repro.sim` router's ``engine``; True for the packed engine.

    ``"packed"`` evaluates through this engine; ``"scalar"`` runs the
    router's one-vector-at-a-time reference loop.
    """
    if engine not in ENGINE_CHOICES:
        raise ValueError(
            f"unknown engine {engine!r} (expected one of {', '.join(ENGINE_CHOICES)})"
        )
    return engine == "packed"


def pack_bits(bits: Sequence[int]) -> int:
    """Pack scalar 0/1 values into a word (bit ``j`` = ``bits[j] & 1``)."""
    word = 0
    for lane, bit in enumerate(bits):
        if bit & 1:
            word |= 1 << lane
    return word


def unpack_bits(word: int, count: int) -> List[int]:
    """Inverse of :func:`pack_bits` for the first ``count`` lanes."""
    return [(word >> lane) & 1 for lane in range(count)]


def pack_vectors(
    vectors: Sequence[Mapping[str, int]],
    nets: Sequence[str],
    *,
    default: Optional[int] = None,
) -> Dict[str, int]:
    """Transpose per-vector dicts into per-net words.

    ``default`` fills lanes whose mapping lacks a net; with ``default=None``
    a missing net raises :class:`CircuitError` (the scalar simulator's
    missing-primary-input behaviour).
    """
    words: Dict[str, int] = {}
    for net in nets:
        word = 0
        bit = 1
        if default is None:
            try:
                for vector in vectors:
                    if int(vector[net]) & 1:
                        word |= bit
                    bit <<= 1
            except KeyError as exc:
                raise CircuitError(f"missing value for primary input {net!r}") from exc
        else:
            for vector in vectors:
                if int(vector.get(net, default)) & 1:
                    word |= bit
                bit <<= 1
        words[net] = word
    return words


def unpack_vectors(
    words: Mapping[str, int], nets: Sequence[str], count: int
) -> List[Dict[str, int]]:
    """Transpose per-net words back into ``count`` per-vector dicts."""
    vectors: List[Dict[str, int]] = [{} for _ in range(count)]
    for net in nets:
        word = words[net]
        for lane in range(count):
            vectors[lane][net] = (word >> lane) & 1
    return vectors


class PackedSimulator:
    """Bit-parallel simulator over a compiled circuit.

    Word-level methods (``eval_words``, ``output_words``,
    ``next_state_words``, ``step_words``) operate directly on per-net words
    and take an explicit ``width``; batch methods accept/return per-vector
    dicts and infer the width from the batch size.  Widths beyond
    ``tile_width`` lanes are evaluated tile by tile (see the module
    docstring); ``tile_width=None`` disables tiling and runs every pass as
    one arbitrarily wide word.
    """

    def __init__(
        self,
        circuit: Circuit,
        *,
        compiled: Optional[CompiledCircuit] = None,
        tile_width: Optional[int] = TILE_WIDTH,
    ) -> None:
        if tile_width is not None and tile_width < 1:
            raise ValueError("tile_width must be a positive lane count or None")
        self.circuit = circuit
        self.compiled = compiled if compiled is not None else compile_circuit(circuit)
        self.tile_width = tile_width
        # Debug sanitizer (see repro.check.program): after every packed pass,
        # assert no word leaked bits past the batch mask.  One attribute test
        # per tile when off.
        self.check_words = os.environ.get("REPRO_CHECK_KERNELS", "") == "1"

    def refresh(self) -> None:
        """Recompile after the circuit was mutated."""
        self.compiled = compile_circuit(self.circuit)

    # ------------------------------------------------------------------ #
    # word-level API
    # ------------------------------------------------------------------ #
    def initial_state_words(self, width: int) -> Dict[str, int]:
        """Reset-value words for every flip-flop (init broadcast to all lanes)."""
        mask = (1 << width) - 1
        return {q: (mask if init else 0) for q, _, init in self.compiled.state_items}

    def _eval_slots_tile(
        self,
        input_words: Mapping[str, int],
        state_words: Optional[Mapping[str, int]],
        width: int,
        offset: int,
    ) -> List[int]:
        """One packed pass over ``width`` lanes starting at lane ``offset``."""
        compiled = self.compiled
        mask = (1 << width) - 1
        values = [0] * compiled.num_slots
        for net, slot in zip(self.circuit.inputs, compiled.input_slots):
            try:
                values[slot] = (input_words[net] >> offset) & mask
            except KeyError as exc:
                raise CircuitError(f"missing word for primary input {net!r}") from exc
        state_words = state_words or {}
        for q, slot, init in compiled.state_items:
            word = state_words.get(q)
            if word is None:
                values[slot] = mask if init else 0
            else:
                values[slot] = (word >> offset) & mask
        compiled.run(values, mask)
        if self.check_words:
            from repro.check.program import verify_packed_words

            verify_packed_words(
                values, mask,
                label=f"<packed pass width={width} offset={offset}>",
            )
        return values

    def _eval_slots(
        self,
        input_words: Mapping[str, int],
        state_words: Optional[Mapping[str, int]],
        width: int,
    ) -> List[int]:
        """Per-slot result words, tiled above ``tile_width`` lanes."""
        tile = self.tile_width
        if tile is None or width <= tile:
            return self._eval_slots_tile(input_words, state_words, width, 0)
        values = [0] * self.compiled.num_slots
        for offset in range(0, width, tile):  # hot-loop
            tile_values = self._eval_slots_tile(
                input_words, state_words, min(tile, width - offset), offset
            )
            for slot, word in enumerate(tile_values):
                if word:
                    values[slot] |= word << offset
        return values

    def eval_words(
        self,
        input_words: Mapping[str, int],
        state_words: Optional[Mapping[str, int]] = None,
        *,
        width: int,
    ) -> Dict[str, int]:
        """Evaluate one packed pass; returns a word for every net."""
        values = self._eval_slots(input_words, state_words, width)
        names = self.compiled.net_names
        return {names[slot]: values[slot] for slot in range(len(names))}

    def output_words(
        self,
        input_words: Mapping[str, int],
        state_words: Optional[Mapping[str, int]] = None,
        *,
        width: int,
    ) -> Dict[str, int]:
        """Evaluate and return only the primary-output words."""
        values = self._eval_slots(input_words, state_words, width)
        return {
            net: values[slot]
            for net, slot in zip(self.circuit.outputs, self.compiled.output_slots)
        }

    def next_state_words(
        self,
        input_words: Mapping[str, int],
        state_words: Optional[Mapping[str, int]] = None,
        *,
        width: int,
    ) -> Dict[str, int]:
        """Evaluate and return the next-state words keyed by Q net."""
        values = self._eval_slots(input_words, state_words, width)
        return {q: values[d_slot] for q, d_slot in self.compiled.dff_d_slots}

    def step_words(
        self,
        input_words: Mapping[str, int],
        state_words: Optional[Mapping[str, int]],
        *,
        width: int,
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """One packed clock edge: returns ``(output_words, next_state_words)``.

        All lanes advance together; ``state_words=None`` starts every lane
        from the flip-flop reset values.
        """
        compiled = self.compiled
        values = self._eval_slots(input_words, state_words, width)
        outputs = {
            net: values[slot]
            for net, slot in zip(self.circuit.outputs, compiled.output_slots)
        }
        next_state = {q: values[d_slot] for q, d_slot in compiled.dff_d_slots}
        return outputs, next_state

    # ------------------------------------------------------------------ #
    # batch (per-vector dict) API
    # ------------------------------------------------------------------ #
    def _pack_states(self, state_vectors: StateArg, width: int) -> Optional[Dict[str, int]]:
        if state_vectors is None:
            return None
        mask = (1 << width) - 1
        if isinstance(state_vectors, Mapping):
            # One assignment broadcast across every lane.
            return {
                q: (mask if int(value) & 1 else 0)
                for q, value in state_vectors.items()
            }
        if len(state_vectors) != width:
            raise ValueError(
                f"{len(state_vectors)} state vectors for a batch of "
                f"{width} input vectors"
            )
        words: Dict[str, int] = {}
        for q, _, init in self.compiled.state_items:
            word = 0
            for lane, state in enumerate(state_vectors):
                value = state.get(q, init)
                if int(value) & 1:
                    word |= 1 << lane
            words[q] = word
        return words

    def _batch_slots(
        self,
        input_vectors: Sequence[Mapping[str, int]],
        state_vectors: StateArg,
    ) -> List[int]:
        """Per-slot words for a batch of per-vector dicts (empty for none)."""
        width = len(input_vectors)
        state_words = self._pack_states(state_vectors, width)
        if width == 0:
            return []
        input_words = pack_vectors(input_vectors, self.circuit.inputs)
        return self._eval_slots(input_words, state_words, width)

    def evaluate_batch(
        self,
        input_vectors: Sequence[Mapping[str, int]],
        state_vectors: StateArg = None,
    ) -> List[Dict[str, int]]:
        """Evaluate every vector; one full net-value dict per vector."""
        values = self._batch_slots(input_vectors, state_vectors)
        names = self.compiled.net_names
        return [
            {names[slot]: (values[slot] >> lane) & 1 for slot in range(len(names))}
            for lane in range(len(input_vectors))
        ]

    def outputs_batch(
        self,
        input_vectors: Sequence[Mapping[str, int]],
        state_vectors: StateArg = None,
    ) -> List[Dict[str, int]]:
        """Evaluate every vector; one primary-output dict per vector."""
        values = self._batch_slots(input_vectors, state_vectors)
        pairs = list(zip(self.circuit.outputs, self.compiled.output_slots))
        return [
            {net: (values[slot] >> lane) & 1 for net, slot in pairs}
            for lane in range(len(input_vectors))
        ]

    def next_state_batch(
        self,
        input_vectors: Sequence[Mapping[str, int]],
        state_vectors: StateArg = None,
    ) -> List[Dict[str, int]]:
        """Evaluate every vector; one next-state dict (keyed by Q) per vector."""
        values = self._batch_slots(input_vectors, state_vectors)
        pairs = self.compiled.dff_d_slots
        return [
            {q: (values[d_slot] >> lane) & 1 for q, d_slot in pairs}
            for lane in range(len(input_vectors))
        ]
