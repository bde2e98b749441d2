"""Packed random equivalence checking and packed toggle/activity counting.

These are the vectorized counterparts of the scalar routines in
:mod:`repro.sim.logicsim` / :mod:`repro.sim.equivalence`.  They draw random
stimulus from the *same* seeded RNG in the *same* order as the scalar
implementations and report identical :class:`EquivalenceResult` fields
(verdict, ``checked`` count, counterexample dict), so the ``engine=``
switch of the :mod:`repro.sim` routers (``random_equivalence_check``,
``sequential_equivalence_check``, ``toggle_counts``) never perturbs a seeded
experiment, and the scalar routines stay the bit-exact reference.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence

from repro.engine.packed import PackedSimulator, pack_vectors
from repro.netlist.circuit import Circuit, CircuitError
from repro.sim.equivalence import EquivalenceResult


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
    """Bit-parallel version of :func:`repro.sim.equivalence.random_equivalence_check`.

    All ``num_vectors`` vectors are evaluated in one packed pass per circuit;
    the first differing (vector, output) pair — in the scalar iteration
    order — is reported as the counterexample.
    """
    rng = random.Random(seed)
    orig_view = original.combinational_view() if original.dffs else original
    cand_view = candidate.combinational_view() if candidate.dffs else candidate
    key_assignment = dict(key_assignment or {})

    shared_outputs = [o for o in orig_view.outputs if o in set(cand_view.outputs)]
    free_inputs = [i for i in cand_view.inputs if i not in key_assignment]

    vectors: List[Dict[str, int]] = []
    for _ in range(num_vectors):
        vector = {net: rng.randint(0, 1) for net in free_inputs}
        vector.update(key_assignment)
        vectors.append(vector)
    if not vectors:
        return EquivalenceResult(equivalent=True, checked=0, method="random")

    orig_vectors = [
        {net: vec.get(net, 0) for net in orig_view.inputs} for vec in vectors
    ]
    width = len(vectors)
    cand_words = PackedSimulator(cand_view).output_words(
        pack_vectors(vectors, cand_view.inputs), width=width
    )
    orig_words = PackedSimulator(orig_view).output_words(
        pack_vectors(orig_vectors, orig_view.inputs), width=width
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
    return EquivalenceResult(
        equivalent=False,
        checked=lane + 1,
        counterexample={"inputs": vectors[lane], "net": net},
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
    """Bit-parallel version of :func:`repro.sim.equivalence.sequential_equivalence_check`.

    The ``num_sequences`` random sequences become the lanes of one packed
    sequential simulation per circuit (all sequences advance in lockstep),
    instead of ``num_sequences`` full scalar runs.  The verdict, ``checked``
    cycle count and counterexample reproduce the scalar sequence-by-sequence
    iteration exactly.
    """
    from repro.sim.seqsim import apply_key_to_sequence

    rng = random.Random(seed)
    key_inputs = list(key_inputs if key_inputs is not None else locked.key_inputs)
    shared_outputs = [o for o in original.outputs if o in set(locked.outputs)]
    functional_inputs = [i for i in locked.inputs if i not in set(key_inputs)]

    all_vectors: List[List[Dict[str, int]]] = []
    orig_seqs: List[List[Dict[str, int]]] = []
    locked_seqs: List[List[Dict[str, int]]] = []
    for _ in range(num_sequences):
        vectors = [
            {net: rng.randint(0, 1) for net in functional_inputs}
            for _ in range(sequence_length)
        ]
        all_vectors.append(vectors)
        orig_seqs.append(
            [{net: vec.get(net, 0) for net in original.inputs} for vec in vectors]
        )
        if key_schedule:
            locked_seqs.append(apply_key_to_sequence(vectors, key_inputs, key_schedule))
        else:
            locked_vectors = [dict(vec) for vec in vectors]
            for vec in locked_vectors:
                for net in key_inputs:
                    vec.setdefault(net, 0)
            locked_seqs.append(locked_vectors)

    lanes = num_sequences
    if lanes == 0 or sequence_length == 0:
        return EquivalenceResult(equivalent=True, checked=0, method="sequential")

    orig_sim = PackedSimulator(original)
    locked_sim = PackedSimulator(locked)
    orig_state = orig_sim.initial_state_words(lanes)
    locked_state = locked_sim.initial_state_words(lanes)

    per_cycle_diffs: List[Dict[str, int]] = []
    diff_any = 0
    for t in range(sequence_length):
        orig_words = pack_vectors([seq[t] for seq in orig_seqs], original.inputs)
        locked_words = pack_vectors([seq[t] for seq in locked_seqs], locked.inputs)
        orig_out, orig_state = orig_sim.step_words(orig_words, orig_state, width=lanes)
        locked_out, locked_state = locked_sim.step_words(locked_words, locked_state, width=lanes)
        diffs = {net: orig_out[net] ^ locked_out[net] for net in shared_outputs}
        per_cycle_diffs.append(diffs)
        for word in diffs.values():
            diff_any |= word

    if not diff_any:
        return EquivalenceResult(
            equivalent=True, checked=lanes * sequence_length, method="sequential"
        )

    # The scalar check walks sequences in order and stops at the first
    # mismatch, so the reported failure is the lowest failing lane, then the
    # earliest cycle within it, then the first output in declaration order.
    lane = _lowest_set_lane(diff_any)
    for cycle, diffs in enumerate(per_cycle_diffs):
        failing = [net for net in shared_outputs if (diffs[net] >> lane) & 1]
        if failing:
            return EquivalenceResult(
                equivalent=False,
                checked=lane * sequence_length + cycle + 1,
                counterexample={
                    "sequence": lane,
                    "cycle": cycle,
                    "net": failing[0],
                    "inputs": all_vectors[lane][: cycle + 1],
                },
                method="sequential",
            )
    raise AssertionError("diff_any set but no failing cycle found")  # pragma: no cover


def packed_toggle_counts(
    circuit: Circuit,
    input_vectors: Sequence[Mapping[str, int]],
    *,
    initial_state: Optional[Mapping[str, int]] = None,
    simulator: Optional[PackedSimulator] = None,
) -> Dict[str, int]:
    """Bit-parallel version of :func:`repro.sim.logicsim.toggle_counts`.

    The sequence is simulated cycle by cycle (state must advance, so time
    cannot be packed into lanes), but each cycle runs the compiled flat
    program instead of the dict-based scalar simulator, and every net's
    value history is accumulated into one word per net.  Toggles are then
    counted in bulk as ``popcount(history ^ (history >> 1))``.

    Callers counting toggles of the same circuit repeatedly can pass a
    prebuilt ``simulator`` to amortize the one-time compilation.
    """
    sim = simulator if simulator is not None else PackedSimulator(circuit)
    compiled = sim.compiled
    num_cycles = len(input_vectors)
    if num_cycles == 0:
        return {}

    state = {q: (1 if init else 0) for q, _, init in compiled.state_items}
    if initial_state:
        for q, value in initial_state.items():
            if q in state:
                state[q] = int(value) & 1
    history = [0] * compiled.num_slots
    for t, vector in enumerate(input_vectors):
        try:
            words = {net: int(vector[net]) & 1 for net in circuit.inputs}
        except KeyError as exc:
            raise CircuitError(f"missing value for primary input {exc.args[0]!r}") from exc
        values = sim._eval_slots(words, state, 1)
        for slot in range(compiled.num_slots):
            if values[slot]:
                history[slot] |= 1 << t
        state = {q: values[d_slot] for q, d_slot in compiled.dff_d_slots}

    span_mask = (1 << (num_cycles - 1)) - 1
    toggles: Dict[str, int] = {}
    names = compiled.net_names
    for slot in range(compiled.num_slots):
        word = history[slot]
        count = bin((word ^ (word >> 1)) & span_mask).count("1")
        if count:
            toggles[names[slot]] = count
    return toggles
