"""Packed random equivalence checking and packed toggle/activity counting.

The checks back the :mod:`repro.sim` routers (``random_equivalence_check``,
``sequential_equivalence_check``); the overhead model, DANA and the lock
metrics call :func:`packed_toggle_counts` directly.  The checks draw
random stimulus from the *same* seeded RNG in the *same* order as the
``scalar_*`` reference loops in :mod:`repro.sim` -- one
:func:`~repro.engine.packed.random_bits` call yields the bits of every
one-bit ``randint`` call those loops make -- and report identical
:class:`EquivalenceResult` fields (verdict, ``checked`` count,
counterexample dict), which the property tests check bit for bit.  Each
net's lane word is sliced straight out of the drawn bits; a key is one
all-ones or all-zeros word per key net (and cycle).  Drawing the stimulus
this way costs about as much as the packed pass it feeds, where building
and transposing one dict per vector cost many times more.
"""

from __future__ import annotations

import operator
import random
from typing import Dict, List, Mapping, Optional, Sequence

from repro.engine.packed import PackedSimulator, key_words, random_bits, stimulus_words
from repro.netlist.circuit import Circuit, CircuitError
from repro.sim.equivalence import EquivalenceResult, check_sizes, common_outputs


def _lowest_set_lane(word: int) -> int:
    """Index of the least-significant set bit (the first failing lane)."""
    return (word & -word).bit_length() - 1


def packed_random_equivalence_check(
    original: Circuit,
    candidate: Circuit,
    *,
    key_assignment: Optional[Mapping[str, int]] = None,
    num_vectors: int = 256,
    seed: int = 0,
) -> EquivalenceResult:
    """Bit-parallel :func:`repro.sim.equivalence.scalar_random_equivalence_check`.

    All ``num_vectors`` vectors are evaluated in one packed pass per circuit;
    the first differing (vector, output) pair — in the scalar iteration
    order — is reported as the counterexample.  ``num_vectors`` below 1, or
    two circuits that share no output, raise :class:`ValueError`.
    """
    check_sizes({"num_vectors": num_vectors})
    rng = random.Random(seed)
    orig_view = original.combinational_view() if original.dffs else original
    cand_view = candidate.combinational_view() if candidate.dffs else candidate
    key_assignment = dict(key_assignment or {})

    shared_outputs = common_outputs(orig_view.outputs, cand_view.outputs)
    free_inputs = [i for i in cand_view.inputs if i not in key_assignment]

    # Vector v draws free_inputs in order: bits[v * count:(v + 1) * count].
    count = len(free_inputs)
    bits = random_bits(rng, num_vectors * count)
    mask = (1 << num_vectors) - 1
    words = stimulus_words(bits, free_inputs)
    words.update(
        (net, mask if int(value) & 1 else 0) for net, value in key_assignment.items()
    )
    cand_words = PackedSimulator(cand_view).output_words(words, width=num_vectors)
    orig_words = PackedSimulator(orig_view).output_words(
        {net: words.get(net, 0) for net in orig_view.inputs}, width=num_vectors
    )

    diff_words = {net: cand_words[net] ^ orig_words[net] for net in shared_outputs}
    diff_any = 0
    for word in diff_words.values():
        diff_any |= word
    if not diff_any:
        return EquivalenceResult(equivalent=True, checked=num_vectors, method="random")

    lane = _lowest_set_lane(diff_any)
    for net in shared_outputs:
        if (diff_words[net] >> lane) & 1:
            break
    vector = dict(zip(free_inputs, bits[lane * count:(lane + 1) * count]))
    vector.update(key_assignment)
    return EquivalenceResult(
        equivalent=False,
        checked=lane + 1,
        counterexample={"inputs": vector, "net": net},
        method="random",
    )


def packed_sequential_equivalence_check(
    original: Circuit,
    locked: Circuit,
    *,
    key_schedule: Optional[Sequence[int]] = None,
    key_inputs: Optional[Sequence[str]] = None,
    num_sequences: int = 16,
    sequence_length: int = 32,
    seed: int = 0,
) -> EquivalenceResult:
    """Bit-parallel :func:`repro.sim.equivalence.scalar_sequential_equivalence_check`.

    The ``num_sequences`` random sequences become the lanes of one packed
    sequential simulation per circuit (all sequences advance in lockstep),
    instead of ``num_sequences`` full scalar runs.  The verdict, ``checked``
    cycle count and counterexample reproduce the scalar sequence-by-sequence
    iteration exactly.  The simulation stops after the first cycle in which
    lane 0 differs: the scalar loop reports that very mismatch.
    ``num_sequences`` or ``sequence_length`` below 1, or two circuits that
    share no output, raise :class:`ValueError`.
    """
    check_sizes({"num_sequences": num_sequences, "sequence_length": sequence_length})
    rng = random.Random(seed)
    key_inputs = list(key_inputs if key_inputs is not None else locked.key_inputs)
    shared_outputs = common_outputs(original.outputs, locked.outputs)
    functional_inputs = [i for i in locked.inputs if i not in set(key_inputs)]

    # Sequence s draws its cycles in order, each cycle functional_inputs in
    # order: cycle t of lane s starts at bit s * stride + t * count.
    count = len(functional_inputs)
    stride = sequence_length * count
    lanes = num_sequences
    bits = random_bits(rng, lanes * stride)
    mask = (1 << lanes) - 1
    schedule = list(key_schedule) if key_schedule else [0]

    orig_sim = PackedSimulator(original)
    locked_sim = PackedSimulator(locked)
    orig_state = orig_sim.initial_state_words(lanes)
    locked_state = locked_sim.initial_state_words(lanes)

    per_cycle_diffs: List[Dict[str, int]] = []
    diff_any = 0
    for t in range(sequence_length):
        words = stimulus_words(bits, functional_inputs, start=t * count, stride=stride)
        orig_words = {net: words.get(net, 0) for net in original.inputs}
        words.update(key_words(key_inputs, schedule[t % len(schedule)], mask))
        orig_out, orig_state = orig_sim.step_words(orig_words, orig_state, width=lanes)
        locked_out, locked_state = locked_sim.step_words(words, locked_state, width=lanes)
        diffs = {net: orig_out[net] ^ locked_out[net] for net in shared_outputs}
        per_cycle_diffs.append(diffs)
        for word in diffs.values():
            diff_any |= word
        if diff_any & 1:
            break

    if not diff_any:
        return EquivalenceResult(
            equivalent=True, checked=lanes * sequence_length, method="sequential"
        )

    # The scalar check walks sequences in order and stops at the first
    # mismatch, so the reported failure is the lowest failing lane, then the
    # earliest cycle within it, then the first output in declaration order.
    # That is why the loop above may stop once lane 0 fails.
    lane = _lowest_set_lane(diff_any)
    for cycle, diffs in enumerate(per_cycle_diffs):
        failing = [net for net in shared_outputs if (diffs[net] >> lane) & 1]
        if failing:
            start = lane * stride
            vectors = [
                dict(zip(functional_inputs, bits[start + c * count:start + (c + 1) * count]))
                for c in range(cycle + 1)
            ]
            return EquivalenceResult(
                equivalent=False,
                checked=lane * sequence_length + cycle + 1,
                counterexample={
                    "sequence": lane,
                    "cycle": cycle,
                    "net": failing[0],
                    "inputs": vectors,
                },
                method="sequential",
            )
    raise AssertionError("diff_any set but no failing cycle found")  # pragma: no cover


def packed_toggle_counts(
    circuit: Circuit,
    input_words: Mapping[str, int],
    num_cycles: int,
    *,
    initial_state: Optional[Mapping[str, int]] = None,
    simulator: Optional[PackedSimulator] = None,
) -> Dict[str, int]:
    """Bit-parallel :func:`repro.sim.logicsim.scalar_toggle_counts`.

    ``input_words`` holds one *cycle word* per primary input: bit ``t`` is
    the input's value in cycle ``t`` of the ``num_cycles`` simulated.  The
    sequence is simulated cycle by cycle (state must advance, so time cannot
    be packed into lanes), each cycle one run of the compiled flat program,
    and every net's toggles are counted at C level with one ``map`` of
    ``xor`` against the previous cycle and one of ``add`` into the running
    counts.

    Callers counting toggles of the same circuit repeatedly can pass a
    prebuilt ``simulator`` to amortize the one-time compilation.
    """
    sim = simulator if simulator is not None else PackedSimulator(circuit)
    compiled = sim.compiled
    if num_cycles <= 0:
        return {}
    try:
        columns = [(net, input_words[net]) for net in circuit.inputs]
    except KeyError as exc:
        raise CircuitError(f"missing value for primary input {exc.args[0]!r}") from exc

    state = {q: (1 if init else 0) for q, _, init in compiled.state_items}
    if initial_state:
        for q, value in initial_state.items():
            if q in state:
                state[q] = int(value) & 1
    counts = [0] * compiled.num_slots
    previous: Optional[List[int]] = None
    for t in range(num_cycles):
        # A one-lane pass keeps bit 0 of every word: cycle t's input value.
        values = sim._eval_slots({net: word >> t for net, word in columns}, state, 1)
        if previous is not None:
            counts = list(map(operator.add, counts, map(operator.xor, previous, values)))
        previous = values
        state = {q: values[d_slot] for q, d_slot in compiled.dff_d_slots}

    names = compiled.net_names
    return {names[slot]: count for slot, count in enumerate(counts) if count}
