"""AppSAT: the approximate SAT attack (Shamsi et al., HOST 2017).

AppSAT interleaves DIP refinement with random-query sampling.  Whenever the
current best key explains a large fraction of random oracle queries, the
attack stops early and returns that *approximate* key.  Against low-
corruptibility schemes (Anti-SAT) this recovers an almost-correct key quickly;
against Cute-Lock the returned static key is simply wrong, which is the deep
red "x..x" outcome in the paper's tables.

Like :func:`~repro.attacks.sat_attack.sat_attack`, the DIP loop harvests up
to ``dip_batch`` DIPs per round behind activation-gated blocking clauses and
answers them with one batched oracle pass (``engine="packed"``, the
default); the error-sampling cadence is preserved — the candidate key is
re-sampled whenever the iteration count crosses a ``settle_rounds``
boundary.  ``engine="scalar"`` keeps the original one-DIP-per-call path.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Optional, Union

from repro.attacks.results import AttackOutcome, AttackResult
from repro.attacks.sat_attack import (
    _DipHarvester,
    _as_locked_pair,
)
from repro.engine.batch_oracle import BatchedCombinationalOracle
from repro.engine.packed import PackedSimulator, parse_engine
from repro.locking.base import LockedCircuit
from repro.netlist.circuit import Circuit
from repro.sat.session import DEFAULT_BACKEND, SolveSession
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
    dip_batch: int = 8,
    engine: str = "packed",
    solver_backend: str = DEFAULT_BACKEND,
) -> AttackResult:
    """Run the AppSAT approximate attack.

    Every ``settle_rounds`` DIP iterations the candidate key is evaluated on
    ``samples_per_round`` random patterns; if the observed error rate is at
    most ``error_threshold`` the candidate is returned as the approximate
    key.  The result is classified against the oracle exactly like the exact
    attack (an approximate key that fails full verification is reported as
    ``WRONG_KEY``).

    ``dip_batch``/``engine`` control batched DIP harvesting exactly as in
    :func:`~repro.attacks.sat_attack.sat_attack` (``engine="scalar"``
    restores the one-DIP-per-solver-call reference path), and
    ``solver_backend`` selects the session's solver backend.
    """
    batched = parse_engine(engine)
    if dip_batch < 1:
        raise ValueError("dip_batch must be at least 1")
    if not batched:
        dip_batch = 1

    locked_circuit, original = _as_locked_pair(locked, oracle_circuit)
    start = time.monotonic()
    rng = random.Random(seed)

    if not locked_circuit.key_inputs:
        return AttackResult(attack="appsat", outcome=AttackOutcome.FAIL,
                            details={"reason": "circuit has no key inputs"})

    locked_view = locked_circuit.combinational_view() if locked_circuit.dffs else locked_circuit
    oracle = BatchedCombinationalOracle(original)
    locked_sim = PackedSimulator(locked_view)

    key_nets = list(locked_view.key_inputs)
    functional_nets = [n for n in locked_view.inputs if n not in set(key_nets)]
    shared_outputs = [o for o in locked_view.outputs if o in set(oracle.output_nets)]

    deadline = start + time_limit
    session = SolveSession(
        solver_backend, conflict_limit=conflict_limit, deadline=deadline
    )
    encoder = session.encoder
    shared_functional = {net: net for net in functional_nets}
    encoder.encode(locked_view, prefix="A@", shared_nets=shared_functional)
    encoder.encode(locked_view, prefix="B@", shared_nets=shared_functional)
    keys_a = [f"A@{net}" for net in key_nets]
    keys_b = [f"B@{net}" for net in key_nets]
    diff_net = encoder.encode_inequality(
        [f"A@{out}" for out in shared_outputs], [f"B@{out}" for out in shared_outputs]
    )
    diff_literal = encoder.literal(diff_net, True)

    def extract_candidate() -> Optional[Dict[str, int]]:
        status = session.solve(phase="key-extract")
        if not status:
            return None
        model = session.model()
        return {net: model.get(encoder.varmap.get(f"A@{net}", -1), 0) for net in key_nets}

    def sample_error(candidate: Dict[str, int]) -> float:
        # One packed pass per side: all samples of the round are lanes.
        vectors = [
            {net: rng.randint(0, 1) for net in functional_nets}
            for _ in range(samples_per_round)
        ]
        oracle_outs = oracle.query_batch(vectors)
        locked_outs = locked_sim.outputs_batch(
            [{**vector, **candidate} for vector in vectors]
        )
        errors = sum(
            1
            for locked_out, oracle_out in zip(locked_outs, oracle_outs)
            if any(locked_out[o] != oracle_out[o] for o in shared_outputs)
        )
        return errors / max(samples_per_round, 1)

    constraint_tag = 0
    dip_rounds = 0
    harvester = _DipHarvester(
        session, diff_literal, functional_nets, deadline, max_iterations
    )

    def add_dip_constraints(dip: Dict[str, int], response: Dict[str, int]) -> None:
        nonlocal constraint_tag
        constraint_tag += 1
        for side, keys in (("A", keys_a), ("B", keys_b)):
            prefix = f"c{side}{constraint_tag}@"
            shared = {net: keys[index] for index, net in enumerate(key_nets)}
            shared.update({net: f"{prefix}{net}" for net in functional_nets})
            encoder.encode(locked_view, prefix=prefix, shared_nets=shared)
            for net in functional_nets:
                encoder.add_value(f"{prefix}{net}", dip[net])
            for out in shared_outputs:
                encoder.add_value(f"{prefix}{out}", response[out])

    def finish(outcome: AttackOutcome, key: Optional[Dict[str, int]] = None, **details) -> AttackResult:
        return AttackResult(
            attack="appsat", outcome=outcome, key=key,
            iterations=harvester.iterations,
            runtime_seconds=time.monotonic() - start,
            details={"oracle_queries": oracle.queries, "engine": engine,
                     "dip_rounds": dip_rounds,
                     "solver": session.telemetry.to_dict(), **details},
        )

    def classify(candidate: Dict[str, int], approximate: bool) -> AttackResult:
        verdict = random_equivalence_check(
            original, locked_circuit, key_assignment=candidate, num_vectors=verify_vectors
        )
        outcome = AttackOutcome.CORRECT if verdict.equivalent else AttackOutcome.WRONG_KEY
        return finish(outcome, key=candidate, approximate=approximate)

    # Harvest quota ramps 1, 2, 4, ... like the exact attack, but never past
    # the next settle boundary: the sampling cadence (every ``settle_rounds``
    # DIP iterations) is part of AppSAT's semantics, and a round that
    # overshot it would skip an early-exit opportunity the scalar path took.
    round_quota = 1
    next_settle = settle_rounds
    harvest_rounds = 0
    while harvester.iterations < max_iterations:
        if time.monotonic() > deadline:
            return finish(AttackOutcome.TIMEOUT, reason="time limit")

        quota = min(round_quota, max(1, next_settle - harvester.iterations))
        harvested = harvester.round(quota)
        harvest_rounds += 1
        trace_event(
            "attack-round",
            attack="appsat",
            round=harvest_rounds,
            harvested=len(harvested),
            iterations=harvester.iterations,
        )
        if len(harvested) >= quota:
            round_quota = min(round_quota * 2, dip_batch)
        if harvested:
            dip_rounds += 1
            if batched:
                responses = oracle.query_batch(harvested)
            else:
                responses = [oracle.query(dip) for dip in harvested]
            for dip, response in zip(harvested, responses):
                add_dip_constraints(dip, response)
        elif harvester.solver_limited:
            return finish(AttackOutcome.TIMEOUT, reason="solver limit during DIP search")

        if harvester.converged:
            candidate = extract_candidate()
            if candidate is None:
                return finish(AttackOutcome.CNS,
                              reason="no static key satisfies all DIP constraints")
            return classify(candidate, approximate=False)

        if harvester.iterations >= next_settle:
            next_settle += settle_rounds
            candidate = extract_candidate()
            if candidate is None:
                return finish(AttackOutcome.CNS,
                              reason="no static key satisfies all DIP constraints")
            if sample_error(candidate) <= error_threshold:
                return classify(candidate, approximate=True)

    return finish(AttackOutcome.TIMEOUT, reason="iteration limit reached")
