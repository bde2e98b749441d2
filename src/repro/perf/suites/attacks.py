"""Attacks suite: end-to-end attack-time trajectory.

``attacks.baseline_sat`` and ``attacks.sanity_singlekey`` carry no bars:
their correctness is pinned by the pytest suites; here they contribute
end-to-end attack wall-clock to the perf history so a slow creep in the
solver/engine stack shows up in ``repro perf compare``.
"""

from __future__ import annotations

from typing import Dict

from repro.perf.harness import Harness
from repro.perf.registry import perf_benchmark


@perf_benchmark(
    "attacks.baseline_sat",
    params=dict(key_bits=6, time_limit=60.0),
    smoke=dict(time_limit=10.0),
    primary="sat_attack",
)
def baseline_sat(harness: Harness, params: Dict[str, object]) -> Dict[str, float]:
    """End-to-end SAT attack on RLL (experiment E8's first row), timed.

    No bar — the attack must simply *succeed*; the recorded wall-clock is
    trajectory data for ``repro perf compare``.
    """
    from repro.attacks import sat_attack
    from repro.attacks.results import AttackOutcome
    from repro.fsm.random_fsm import random_fsm
    from repro.fsm.synthesis import synthesize_fsm
    from repro.locking.baselines import lock_rll

    circuit = synthesize_fsm(random_fsm(8, 2, 2, seed=5), style="sop")
    locked = lock_rll(circuit, int(params["key_bits"]), seed=1)
    time_limit = float(params["time_limit"])
    stats = harness.time_series(
        "sat_attack",
        lambda: _require_correct(sat_attack(locked, time_limit=time_limit),
                                 AttackOutcome.CORRECT, "RLL SAT attack"),
        repeats=3, warmup=1,
    )
    return {"attack_seconds": stats.median}


@perf_benchmark(
    "attacks.sanity_singlekey",
    params=dict(time_limit=60.0, max_depth=8),
    smoke=dict(time_limit=10.0),
    primary="int_attack",
)
def sanity_singlekey(harness: Harness, params: Dict[str, object]) -> Dict[str, float]:
    """Experiment E7 timing: the single-key Cute-Lock reduction, attacked.

    No bar; trajectory only.  The incremental unrolling attack is the
    timed path because it exercises the unroller, session layer and packed
    oracle in one go.
    """
    from repro.attacks import int_attack
    from repro.attacks.results import AttackOutcome
    from repro.fsm.random_fsm import random_fsm
    from repro.fsm.synthesis import synthesize_fsm
    from repro.locking.base import KeySchedule
    from repro.locking.cutelock_str import CuteLockStr

    circuit = synthesize_fsm(random_fsm(8, 2, 2, seed=5), style="sop")
    schedule = KeySchedule(width=2, values=(2, 2, 2, 2))
    locked = CuteLockStr(num_keys=4, key_width=2, num_locked_ffs=1, seed=3).lock(
        circuit, schedule=schedule)
    time_limit, max_depth = float(params["time_limit"]), int(params["max_depth"])
    stats = harness.time_series(
        "int_attack",
        lambda: _require_correct(
            int_attack(locked, time_limit=time_limit, max_depth=max_depth),
            AttackOutcome.CORRECT, "single-key INT attack"),
        repeats=3, warmup=1,
    )
    return {"attack_seconds": stats.median}


def _require_correct(result, expected, label: str):
    if result.outcome is not expected:
        raise RuntimeError(f"{label} did not recover the key: {result.outcome}")
    return result
