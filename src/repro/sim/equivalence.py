"""Equivalence checking between an original and a (locked/unlocked) circuit.

Three flavours are provided:

* :func:`random_equivalence_check` — combinational, random-vector based;
  cheap, used as the verification step inside attacks to classify recovered
  keys as correct or wrong.
* :func:`sequential_equivalence_check` — cycle-accurate simulation of both
  circuits over random input sequences (with an optional key schedule applied
  to the locked circuit); this is how Tables I/II style validation is scored.
* :func:`sat_equivalence_check` — formal combinational equivalence via a SAT
  miter (used on small circuits and in the attack verifiers).

The two simulation checks run on the packed engine
(:mod:`repro.engine.equivalence`, imported at call time because it imports
:class:`EquivalenceResult` from here).  :func:`scalar_random_equivalence_check`
and :func:`scalar_sequential_equivalence_check` are their one-vector-at-a-
time reference loops: they draw the same seeded stimulus, report identical
results, and only the tests call them.
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
    evaluated in one packed pass per circuit.
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
    rng = random.Random(seed)
    orig_view = original.combinational_view() if original.dffs else original
    cand_view = candidate.combinational_view() if candidate.dffs else candidate
    orig_sim = CombinationalSimulator(orig_view)
    cand_sim = CombinationalSimulator(cand_view)
    key_assignment = dict(key_assignment or {})

    shared_outputs = [o for o in orig_view.outputs if o in set(cand_view.outputs)]
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
    of one packed simulation per circuit.
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
    rng = random.Random(seed)
    key_inputs = list(key_inputs if key_inputs is not None else locked.key_inputs)
    shared_outputs = [o for o in original.outputs if o in set(locked.outputs)]
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


def sat_equivalence_check(
    original: Circuit,
    candidate: Circuit,
    *,
    key_assignment: Optional[Mapping[str, int]] = None,
    conflict_limit: Optional[int] = None,
) -> EquivalenceResult:
    """Formal combinational equivalence via a SAT miter.

    Returns ``equivalent=True`` when the miter is UNSAT.  Sequential circuits
    are compared through their scan-access combinational views.  The miter is
    solved through a :class:`~repro.sat.session.SolveSession` (so the query
    shows up in any active solver-telemetry capture).  The import of the SAT
    layer is deferred so :mod:`repro.sim` has no hard dependency on
    :mod:`repro.sat`.
    """
    from repro.sat.miter import build_miter
    from repro.sat.session import SolveSession

    orig_view = original.combinational_view() if original.dffs else original
    cand_view = candidate.combinational_view() if candidate.dffs else candidate
    miter, diff_net = build_miter(orig_view, cand_view)

    session = SolveSession(conflict_limit=conflict_limit)
    encoder = session.encoder
    encoder.encode(miter)
    assumptions: List[int] = [encoder.literal(diff_net, True)]
    key_assignment = dict(key_assignment or {})
    for net, value in key_assignment.items():
        miter_net = f"B_{net}"
        if miter_net in encoder.varmap:
            assumptions.append(encoder.literal(miter_net, bool(value)))
        elif net in encoder.varmap:
            assumptions.append(encoder.literal(net, bool(value)))
    outcome = session.solve(assumptions=assumptions, phase="miter-equivalence")
    if outcome is None:
        return EquivalenceResult(equivalent=False, checked=0, method="sat-unknown")
    if outcome:
        model = session.model()
        counterexample = {
            net: model.get(var, 0)
            for net, var in encoder.varmap.items()
            if net in miter.inputs
        }
        return EquivalenceResult(
            equivalent=False, checked=1, counterexample=counterexample, method="sat"
        )
    return EquivalenceResult(equivalent=True, checked=1, method="sat")
