"""The packed bit-parallel runtime.

Vectors are *transposed*: instead of one dict of 0/1 values per vector, the
engine keeps one arbitrary-width Python int per net, where bit ``j`` holds
the net's value under vector ``j`` (lane ``j``).  The helpers at the top of
this module convert between the two layouts; :class:`PackedSimulator` runs
the compiled flat program over the word layout.

Random stimulus never goes through the dict layout: :func:`random_bits`
draws the bits of a whole batch at once -- the very bits one
``rng.randint`` call per bit (over 0 and 1) would draw -- and
:func:`stimulus_words` slices each net's lane word out of them.

The batch entry points (``evaluate_batch`` / ``outputs_batch`` /
``next_state_batch``) mirror the scalar :class:`~repro.sim.logicsim.\
CombinationalSimulator` contract vector-for-vector, including the missing-
input :class:`~repro.netlist.circuit.CircuitError` and the ``ff.init``
default for absent state bits, so the property tests can diff the two
simulators bit for bit.  A per-lane state list must hold exactly one
mapping per input vector (:class:`ValueError` otherwise).

Every pass evaluates all lanes at once, one word per net, whatever the
batch width.  Splitting a wide pass into narrower tiles would only repeat
the per-gate interpreter overhead, which costs more than the big-int
operations themselves.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.compiler import compile_circuit
from repro.netlist.circuit import Circuit, CircuitError

#: Per-lane state: either one mapping broadcast to every lane, or one
#: mapping per lane.
StateArg = Optional[Union[Mapping[str, int], Sequence[Mapping[str, int]]]]

#: ``bytes.translate`` table: a byte value to the ASCII digit of its low bit.
_BINARY_DIGITS = bytes(ord("0") + (value & 1) for value in range(256))

#: ``bytes.translate`` table and deletions of :func:`random_bits`: the top
#: byte of a 32-bit Mersenne Twister output below 0x80 is a one-bit
#: ``randint`` draw equal to its bit 6; from 0x80 up the draw is redrawn.
_DRAW_BIT = bytes((value >> 6) & 1 for value in range(256))
_REDRAWN = bytes(range(0x80, 0x100))


def random_bits(rng: random.Random, count: int) -> bytes:
    """``count`` one-bit ``rng.randint`` draws (over 0 and 1), one per byte.

    The bits, and the state ``rng`` is left in, are exactly those of a loop
    of ``count`` such ``randint`` calls.  CPython draws each as
    ``getrandbits(2)`` -- the top two bits of one 32-bit output -- and
    redraws on 2 or 3.  So each round takes as many 32-bit outputs as bits
    are still missing in one ``getrandbits`` call, keeps the top byte of
    each, and maps the accepted ones to their draw with one
    ``bytes.translate``.  Every output yields at most one bit, so a round
    never draws past what the ``randint`` loop would have drawn.
    """
    chunks: List[bytes] = []
    missing = count
    while missing > 0:
        top_bytes = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")[3::4]
        chunk = top_bytes.translate(_DRAW_BIT, _REDRAWN)
        chunks.append(chunk)
        missing -= len(chunk)
    return b"".join(chunks)


def pack_bits(bits: Sequence[int]) -> int:
    """Pack scalar 0/1 values into a word (bit ``j`` = ``bits[j] & 1``).

    ``bits`` holds values from 0 to 255 (a ``bytes`` from
    :func:`random_bits`, or a list); the word is one ``int(..., 2)`` parse.
    """
    if not bits:
        return 0
    return int(bytes(bits)[::-1].translate(_BINARY_DIGITS), 2)


def unpack_bits(word: int, count: int) -> List[int]:
    """Inverse of :func:`pack_bits` for the first ``count`` lanes."""
    return [(word >> lane) & 1 for lane in range(count)]


def stimulus_words(
    bits: bytes, nets: Sequence[str], *, start: int = 0, stride: int = 0
) -> Dict[str, int]:
    """Per-net lane words sliced out of drawn stimulus ``bits``.

    ``nets[i]`` takes ``bits[start + i]``, ``bits[start + i + stride]``, ...
    as lanes 0, 1, ...  The default ``stride`` is ``len(nets)``: ``bits``
    holds one vector after the other, each drawn net by net, and lane ``j``
    is vector ``j``.
    """
    stride = stride or len(nets)
    return {net: pack_bits(bits[start + index::stride]) for index, net in enumerate(nets)}


def key_words(key_inputs: Sequence[str], key_value: int, mask: int) -> Dict[str, int]:
    """All-ones or all-zeros words that apply ``key_value`` to every lane.

    ``key_inputs`` is MSB first, as in
    :func:`~repro.sim.seqsim.apply_key_to_sequence`: bit 0 of ``key_value``
    drives the last key input.
    """
    width = len(key_inputs)
    return {
        net: mask if (key_value >> (width - 1 - index)) & 1 else 0
        for index, net in enumerate(key_inputs)
    }


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
    dicts and infer the width from the batch size.  Every pass runs once
    over all ``width`` lanes.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.compiled = compile_circuit(circuit)
        # Debug sanitizer (see repro.check.program): after every packed pass,
        # assert no word leaked bits past the batch mask.  One attribute test
        # per pass when off.
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

    def _eval_slots(
        self,
        input_words: Mapping[str, int],
        state_words: Optional[Mapping[str, int]],
        width: int,
    ) -> List[int]:
        """One packed pass over ``width`` lanes; returns the per-slot words."""
        compiled = self.compiled
        mask = (1 << width) - 1
        values = [0] * compiled.num_slots
        for net, slot in zip(self.circuit.inputs, compiled.input_slots):
            try:
                values[slot] = input_words[net] & mask
            except KeyError as exc:
                raise CircuitError(f"missing word for primary input {net!r}") from exc
        state_words = state_words or {}
        for q, slot, init in compiled.state_items:
            word = state_words.get(q)
            if word is None:
                values[slot] = mask if init else 0
            else:
                values[slot] = word & mask
        compiled.run(values, mask)
        if self.check_words:
            from repro.check.program import verify_packed_words

            verify_packed_words(values, mask, label=f"<packed pass width={width}>")
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
