"""Benchmark / sanity experiment E7: single-key reduction is attackable.

Section IV-A of the paper notes that locking with all key values equal
reduces Cute-Lock to a single-key scheme, which the SAT attacks then break —
the control experiment showing the attacks are implemented faithfully.
``REPRO_BENCH_SMOKE=1`` shrinks the per-attack budget via the smoke-aware
``attack_time_limit`` fixture.
"""

from repro.attacks import int_attack, sat_attack
from repro.attacks.results import AttackOutcome
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.base import KeySchedule
from repro.locking.cutelock_str import CuteLockStr


def _collapsed_lock():
    fsm = random_fsm(8, 2, 2, seed=5)
    circuit = synthesize_fsm(fsm)
    schedule = KeySchedule(width=2, values=(2, 2, 2, 2))
    return CuteLockStr(num_keys=4, key_width=2, num_locked_ffs=1, seed=3).lock(
        circuit, schedule=schedule
    )


def test_sanity_sat_attack_breaks_single_key_reduction(benchmark, attack_time_limit):
    locked = _collapsed_lock()
    result = benchmark.pedantic(
        lambda: sat_attack(locked, time_limit=attack_time_limit), rounds=1, iterations=1
    )
    print()
    print(result.summary())
    assert result.outcome is AttackOutcome.CORRECT


def test_sanity_sequential_attack_breaks_single_key_reduction(benchmark, attack_time_limit):
    locked = _collapsed_lock()
    result = benchmark.pedantic(
        lambda: int_attack(locked, time_limit=attack_time_limit, max_depth=8),
        rounds=1, iterations=1,
    )
    print()
    print(result.summary())
    assert result.outcome is AttackOutcome.CORRECT
