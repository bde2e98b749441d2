"""DoubleDIP: the two-DIP-per-iteration SAT attack (Shen & Zhou, GLSVLSI 2017).

DoubleDIP strengthens each refinement round so that every iteration
eliminates at least two wrong keys, which defeats "one DIP per wrong key"
schemes such as SAR-Lock.  The implementation reuses the exact attack's
incremental machinery and simply harvests two distinct discriminating
patterns per round (the second found after the first round's constraints are
installed), which preserves the published attack's convergence behaviour on
the schemes reproduced here.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Union

from repro.attacks.results import AttackOutcome, AttackResult
from repro.attacks.sat_attack import _as_locked_pair, _DipMiter
from repro.engine.batch_oracle import BatchedCombinationalOracle
from repro.locking.base import LockedCircuit
from repro.netlist.circuit import Circuit
from repro.sat.session import SolveSession
from repro.sim.equivalence import random_equivalence_check


def double_dip_attack(
    locked: Union[LockedCircuit, Circuit],
    oracle_circuit: Optional[Circuit] = None,
    *,
    max_iterations: int = 128,
    time_limit: float = 120.0,
    conflict_limit: Optional[int] = 200_000,
    verify_vectors: int = 256,
) -> AttackResult:
    """Run the DoubleDIP attack (two DIPs harvested per iteration)."""
    locked_circuit, original = _as_locked_pair(locked, oracle_circuit)
    start = time.monotonic()

    if not locked_circuit.key_inputs:
        return AttackResult(attack="double-dip", outcome=AttackOutcome.FAIL,
                            details={"reason": "circuit has no key inputs"})

    locked_view = locked_circuit.combinational_view() if locked_circuit.dffs else locked_circuit
    oracle = BatchedCombinationalOracle(original)
    shared_outputs = [o for o in locked_view.outputs if o in set(oracle.output_nets)]
    if not shared_outputs:
        # Without shared outputs the inequality below would be a degenerate
        # always-false miter and the attack would "converge" instantly on a
        # meaningless key; report the broken setup instead.
        return AttackResult(attack="double-dip", outcome=AttackOutcome.FAIL,
                            details={"reason": "locked circuit and oracle share no outputs"})

    deadline = start + time_limit
    session = SolveSession(conflict_limit=conflict_limit, deadline=deadline)
    miter = _DipMiter(session, locked_view, shared_outputs)
    iterations = 0

    def finish(outcome: AttackOutcome, key: Optional[Dict[str, int]] = None, **details) -> AttackResult:
        return AttackResult(
            attack="double-dip", outcome=outcome, key=key, iterations=iterations,
            runtime_seconds=time.monotonic() - start,
            details={"oracle_queries": oracle.queries,
                     "solver": session.telemetry.to_dict(), **details},
        )

    while iterations < max_iterations:
        if time.monotonic() > deadline:
            return finish(AttackOutcome.TIMEOUT, reason="time limit")
        iterations += 1
        found_any = False
        for _ in range(2):  # harvest up to two DIPs per round
            status = miter.search()
            if status is None:
                return finish(AttackOutcome.TIMEOUT, reason="solver limit during DIP search")
            if status is False:
                break
            found_any = True
            dip = miter.dip()
            miter.observe(dip, oracle.query(dip))
        if not found_any:
            # Converged: extract and classify a consistent key (if any).
            status = session.solve(phase="key-extract")
            if status is None:
                return finish(AttackOutcome.TIMEOUT, reason="solver limit during key extraction")
            if status is False:
                return finish(AttackOutcome.CNS,
                              reason="no static key satisfies all DIP constraints")
            key = miter.key()
            verdict = random_equivalence_check(
                original, locked_circuit, key_assignment=key, num_vectors=verify_vectors
            )
            outcome = AttackOutcome.CORRECT if verdict.equivalent else AttackOutcome.WRONG_KEY
            return finish(outcome, key=key)

    return finish(AttackOutcome.TIMEOUT, reason="iteration limit reached")
