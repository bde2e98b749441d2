"""The packed bit-parallel runtime.

The engine's only layout is the *lane word*: one arbitrary-width Python int
per net, where bit ``j`` holds the net's value under vector ``j`` (lane
``j``).  :class:`PackedSimulator` runs the compiled flat program over lane
words; each pass takes the words of the primary inputs (and optionally of
the flip-flop states) and an explicit ``width``.  A one-lane word is just
the net's 0/1 value, so a single vector is a one-lane pass.

Random stimulus is drawn straight into words: :func:`random_bits` draws the
bits of a whole batch at once -- the very bits one ``rng.randint`` call per
bit (over 0 and 1) would draw -- and :func:`stimulus_words` slices each
net's lane word out of them.

A missing input word raises :class:`~repro.netlist.circuit.CircuitError`,
as the scalar :class:`~repro.sim.logicsim.CombinationalSimulator` does for
a missing input value, and an absent state word starts from ``ff.init``.

Every pass evaluates all lanes at once, one word per net, whatever the
batch width.  Splitting a wide pass into narrower tiles would only repeat
the per-gate interpreter overhead, which costs more than the big-int
operations themselves.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.compiler import compile_circuit
from repro.netlist.circuit import Circuit, CircuitError

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


class PackedSimulator:
    """Bit-parallel simulator over a compiled circuit.

    ``eval_words``, ``output_words`` and ``step_words`` take one lane word
    per primary input and return lane words; every pass runs once over all
    ``width`` lanes.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.compiled = compile_circuit(circuit)
        # Debug sanitizer (see repro.check.program): after every packed pass,
        # assert no word leaked bits past the batch mask.  One attribute test
        # per pass when off.
        self.check_words = os.environ.get("REPRO_CHECK_KERNELS", "") == "1"

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

    def step_words(
        self,
        input_words: Mapping[str, int],
        state_words: Optional[Mapping[str, int]],
        *,
        width: int,
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """One packed clock edge: returns the output words and the next-state
        words (keyed by Q net).

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
