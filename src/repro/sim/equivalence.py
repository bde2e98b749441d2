"""Equivalence checking between an original and a (locked/unlocked) circuit.

Two flavours are provided:

* :func:`random_equivalence_check` — combinational, random-vector based;
  cheap, used as the verification step inside attacks to classify recovered
  keys as correct or wrong.
* :func:`sequential_equivalence_check` — cycle-accurate simulation of both
  circuits over random input sequences (with an optional key schedule applied
  to the locked circuit); this is how Tables I/II style validation is scored.

Both checks run on the packed engine
(:mod:`repro.engine.equivalence`, imported at call time because it imports
:class:`EquivalenceResult` from here).  :func:`scalar_random_equivalence_check`
and :func:`scalar_sequential_equivalence_check` are their one-vector-at-a-
time reference loops: they draw the same seeded stimulus, one
``rng.randint(0, 1)`` per input bit (the engine draws the identical bits in
bulk), report identical results, and only the tests call them.  Every
check refuses a size below 1 (:func:`check_sizes`) and two circuits that
share no output (:func:`common_outputs`): a check of no vectors, no cycles
or no output would pass any key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.netlist.circuit import Circuit
from repro.sim.logicsim import CombinationalSimulator
from repro.sim.seqsim import SequentialSimulator, apply_key_to_sequence


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of an equivalence check.

    ``equivalent`` is the verdict; ``counterexample`` (if any) is the input
    assignment / input sequence that distinguished the two circuits;
    ``checked`` is the number of vectors or cycles examined.
    """

    equivalent: bool
    checked: int
    counterexample: Optional[object] = None
    method: str = "random"


def check_sizes(sizes: Mapping[str, int]) -> None:
    """Raise :class:`ValueError` unless every size of a check is at least 1.

    ``sizes`` maps a check's size arguments (``num_vectors``,
    ``num_sequences``, ``sequence_length``) to their values.
    """
    for name, value in sizes.items():
        if not value >= 1:
            raise ValueError(
                f"{name} must be >= 1, got {value!r}: a check that examines "
                "nothing passes any key"
            )


def common_outputs(original: Sequence[str], candidate: Sequence[str]) -> List[str]:
    """The outputs in ``original`` that ``candidate`` also has, in order.

    Raises :class:`ValueError` when there are none.
    """
    candidate_nets = set(candidate)
    shared = [net for net in original if net in candidate_nets]
    if not shared:
        raise ValueError(
            "the two circuits share no output: a check that compares no "
            "output passes any key"
        )
    return shared


def _random_vector(nets: Sequence[str], rng: random.Random) -> Dict[str, int]:
    return {net: rng.randint(0, 1) for net in nets}


def random_equivalence_check(
    original: Circuit,
    candidate: Circuit,
    *,
    key_assignment: Optional[Mapping[str, int]] = None,
    num_vectors: int = 256,
    seed: int = 0,
) -> EquivalenceResult:
    """Compare two circuits combinationally on random vectors.

    Sequential circuits are compared through their scan-access combinational
    views (flip-flop Q pins driven as pseudo-inputs, D pins observed), which
    is the same observability model the oracle-guided SAT attack uses.
    ``key_assignment`` fixes the candidate's key inputs.  All vectors are
    evaluated in one packed pass per circuit.  ``num_vectors`` below 1, or
    two circuits that share no output, raise :class:`ValueError`.
    """
    from repro.engine.equivalence import packed_random_equivalence_check

    return packed_random_equivalence_check(
        original,
        candidate,
        key_assignment=key_assignment,
        num_vectors=num_vectors,
        seed=seed,
    )


def scalar_random_equivalence_check(
    original: Circuit,
    candidate: Circuit,
    *,
    key_assignment: Optional[Mapping[str, int]] = None,
    num_vectors: int = 256,
    seed: int = 0,
) -> EquivalenceResult:
    """Reference :func:`random_equivalence_check`: one vector at a time."""
    check_sizes({"num_vectors": num_vectors})
    rng = random.Random(seed)
    orig_view = original.combinational_view() if original.dffs else original
    cand_view = candidate.combinational_view() if candidate.dffs else candidate
    orig_sim = CombinationalSimulator(orig_view)
    cand_sim = CombinationalSimulator(cand_view)
    key_assignment = dict(key_assignment or {})

    shared_outputs = common_outputs(orig_view.outputs, cand_view.outputs)
    free_inputs = [i for i in cand_view.inputs if i not in key_assignment]

    for index in range(num_vectors):
        vector = _random_vector(free_inputs, rng)
        vector.update(key_assignment)
        orig_vector = {net: vector.get(net, 0) for net in orig_view.inputs}
        cand_out = cand_sim.outputs(vector)
        orig_out = orig_sim.outputs(orig_vector)
        for net in shared_outputs:
            if cand_out[net] != orig_out[net]:
                return EquivalenceResult(
                    equivalent=False,
                    checked=index + 1,
                    counterexample={"inputs": vector, "net": net},
                    method="random",
                )
    return EquivalenceResult(equivalent=True, checked=num_vectors, method="random")


def sequential_equivalence_check(
    original: Circuit,
    locked: Circuit,
    *,
    key_schedule: Optional[Sequence[int]] = None,
    key_inputs: Optional[Sequence[str]] = None,
    num_sequences: int = 16,
    sequence_length: int = 32,
    seed: int = 0,
) -> EquivalenceResult:
    """Compare the cycle-by-cycle primary-output behaviour of two circuits.

    The locked circuit receives the given time-varying ``key_schedule`` on
    its ``key_inputs`` (MSB first); remaining inputs are driven identically
    in both circuits from a seeded random source.  This mirrors the paper's
    validation methodology: under the scheduled keys the locked circuit must
    match the original on every observed cycle.  All sequences run as lanes
    of one packed simulation per circuit.  ``num_sequences`` or
    ``sequence_length`` below 1, or two circuits that share no output, raise
    :class:`ValueError`.
    """
    from repro.engine.equivalence import packed_sequential_equivalence_check

    return packed_sequential_equivalence_check(
        original,
        locked,
        key_schedule=key_schedule,
        key_inputs=key_inputs,
        num_sequences=num_sequences,
        sequence_length=sequence_length,
        seed=seed,
    )


def scalar_sequential_equivalence_check(
    original: Circuit,
    locked: Circuit,
    *,
    key_schedule: Optional[Sequence[int]] = None,
    key_inputs: Optional[Sequence[str]] = None,
    num_sequences: int = 16,
    sequence_length: int = 32,
    seed: int = 0,
) -> EquivalenceResult:
    """Reference :func:`sequential_equivalence_check`: one sequence at a time."""
    check_sizes({"num_sequences": num_sequences, "sequence_length": sequence_length})
    rng = random.Random(seed)
    key_inputs = list(key_inputs if key_inputs is not None else locked.key_inputs)
    shared_outputs = common_outputs(original.outputs, locked.outputs)
    functional_inputs = [i for i in locked.inputs if i not in set(key_inputs)]

    cycles_checked = 0
    for seq_index in range(num_sequences):
        vectors = [
            _random_vector(functional_inputs, rng) for _ in range(sequence_length)
        ]
        orig_vectors = [
            {net: vec.get(net, 0) for net in original.inputs} for vec in vectors
        ]
        if key_schedule:
            locked_vectors = apply_key_to_sequence(vectors, key_inputs, key_schedule)
        else:
            locked_vectors = [dict(vec) for vec in vectors]
            for vec in locked_vectors:
                for net in key_inputs:
                    vec.setdefault(net, 0)

        orig_wave = SequentialSimulator(original).run(orig_vectors)
        locked_wave = SequentialSimulator(locked).run(locked_vectors)
        for cycle, (row_o, row_l) in enumerate(zip(orig_wave.rows, locked_wave.rows)):
            cycles_checked += 1
            for net in shared_outputs:
                if row_o.signals[net] != row_l.signals[net]:
                    return EquivalenceResult(
                        equivalent=False,
                        checked=cycles_checked,
                        counterexample={
                            "sequence": seq_index,
                            "cycle": cycle,
                            "net": net,
                            "inputs": vectors[: cycle + 1],
                        },
                        method="sequential",
                    )
    return EquivalenceResult(equivalent=True, checked=cycles_checked, method="sequential")
