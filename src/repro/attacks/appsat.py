"""AppSAT: the approximate SAT attack (Shamsi et al., HOST 2017).

AppSAT interleaves DIP refinement with random-query sampling.  Whenever the
current best key explains a large fraction of random oracle queries, the
attack stops early and returns that *approximate* key.  Against low-
corruptibility schemes (Anti-SAT) this recovers an almost-correct key quickly;
against Cute-Lock the returned static key is simply wrong, which is the deep
red "x..x" outcome in the paper's tables.

The DIP loop is the exact attack's (:func:`~repro.attacks.sat_attack.\
sat_attack`): one solver call, one DIP, one oracle query, one constraint per
iteration.  Every ``settle_rounds`` iterations the candidate key is checked
against the oracle on ``samples_per_round`` random patterns, all of them
lanes of one packed pass.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Optional, Union

from repro.attacks.results import AttackOutcome, AttackResult
from repro.attacks.sat_attack import _as_locked_pair, _DipMiter
from repro.engine.batch_oracle import BatchedCombinationalOracle
from repro.locking.base import LockedCircuit
from repro.netlist.circuit import Circuit
from repro.sat.session import SolveSession
from repro.sim.equivalence import random_equivalence_check
from repro.trace.writer import trace_event


def appsat_attack(
    locked: Union[LockedCircuit, Circuit],
    oracle_circuit: Optional[Circuit] = None,
    *,
    max_iterations: int = 128,
    settle_rounds: int = 4,
    samples_per_round: int = 32,
    error_threshold: float = 0.05,
    time_limit: float = 120.0,
    conflict_limit: Optional[int] = 200_000,
    verify_vectors: int = 256,
    seed: int = 0,
) -> AttackResult:
    """Run the AppSAT approximate attack.

    Every ``settle_rounds`` DIP iterations the candidate key is evaluated on
    ``samples_per_round`` random patterns; if the observed error rate is at
    most ``error_threshold`` the candidate is returned as the approximate
    key.  The result is classified against the oracle exactly like the exact
    attack (an approximate key that fails full verification is reported as
    ``WRONG_KEY``).
    """
    locked_circuit, original = _as_locked_pair(locked, oracle_circuit)
    start = time.monotonic()
    rng = random.Random(seed)

    if not locked_circuit.key_inputs:
        return AttackResult(attack="appsat", outcome=AttackOutcome.FAIL,
                            details={"reason": "circuit has no key inputs"})

    locked_view = locked_circuit.combinational_view() if locked_circuit.dffs else locked_circuit
    oracle = BatchedCombinationalOracle(original)

    shared_outputs = [o for o in locked_view.outputs if o in set(oracle.output_nets)]

    deadline = start + time_limit
    session = SolveSession(conflict_limit=conflict_limit, deadline=deadline)
    miter = _DipMiter(session, locked_view, shared_outputs)

    def extract_candidate() -> Optional[Dict[str, int]]:
        status = session.solve(phase="key-extract")
        if not status:
            return None
        return miter.key()

    def sample_error(candidate: Dict[str, int]) -> float:
        # One packed pass per side: all samples of the round are lanes.
        vectors = [
            {net: rng.randint(0, 1) for net in miter.functional_nets}
            for _ in range(samples_per_round)
        ]
        oracle_outs = oracle.query_batch(vectors)
        locked_outs = miter.simulator.outputs_batch(
            [{**vector, **candidate} for vector in vectors]
        )
        errors = sum(
            1
            for locked_out, oracle_out in zip(locked_outs, oracle_outs)
            if any(locked_out[o] != oracle_out[o] for o in shared_outputs)
        )
        return errors / max(samples_per_round, 1)

    iterations = 0

    def finish(outcome: AttackOutcome, key: Optional[Dict[str, int]] = None, **details) -> AttackResult:
        return AttackResult(
            attack="appsat", outcome=outcome, key=key,
            iterations=iterations,
            runtime_seconds=time.monotonic() - start,
            details={"oracle_queries": oracle.queries,
                     "solver": session.telemetry.to_dict(), **details},
        )

    def classify(candidate: Dict[str, int], approximate: bool) -> AttackResult:
        verdict = random_equivalence_check(
            original, locked_circuit, key_assignment=candidate, num_vectors=verify_vectors
        )
        outcome = AttackOutcome.CORRECT if verdict.equivalent else AttackOutcome.WRONG_KEY
        return finish(outcome, key=candidate, approximate=approximate)

    rounds = 0
    next_settle = settle_rounds
    while iterations < max_iterations:
        if time.monotonic() > deadline:
            return finish(AttackOutcome.TIMEOUT, reason="time limit")

        status = miter.search()
        rounds += 1
        if status:
            iterations += 1
        trace_event(
            "attack-round",
            attack="appsat",
            round=rounds,
            harvested=int(bool(status)),
            iterations=iterations,
        )
        if status is None:
            return finish(AttackOutcome.TIMEOUT, reason="solver limit during DIP search")
        if status is False:
            candidate = extract_candidate()
            if candidate is None:
                return finish(AttackOutcome.CNS,
                              reason="no static key satisfies all DIP constraints")
            return classify(candidate, approximate=False)
        dip = miter.dip()
        miter.observe(dip, oracle.query(dip))

        if iterations >= next_settle:
            next_settle += settle_rounds
            candidate = extract_candidate()
            if candidate is None:
                return finish(AttackOutcome.CNS,
                              reason="no static key satisfies all DIP constraints")
            if sample_error(candidate) <= error_threshold:
                return classify(candidate, approximate=True)

    return finish(AttackOutcome.TIMEOUT, reason="iteration limit reached")
