"""Benchmark / experiment E8: the attacks break the baselines as published.

RLL falls to the exact SAT attack, SARLock to DoubleDIP, TTLock to FALL and
HARPOON to the incremental unrolling attack — the literature results that
make the Cute-Lock resistance rows of Tables III/IV meaningful.
``REPRO_BENCH_SMOKE=1`` shrinks the per-attack budget via the smoke-aware
``attack_time_limit`` fixture.
"""

import pytest

from repro.attacks import double_dip_attack, fall_attack, int_attack, sat_attack
from repro.attacks.results import AttackOutcome
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.baselines import lock_harpoon, lock_rll, lock_sarlock, lock_ttlock


@pytest.fixture(scope="module")
def base_circuit():
    fsm = random_fsm(8, 2, 2, seed=5)
    return synthesize_fsm(fsm)


def test_rll_falls_to_sat_attack(benchmark, base_circuit, attack_time_limit):
    locked = lock_rll(base_circuit, 6, seed=1)
    result = benchmark.pedantic(
        lambda: sat_attack(locked, time_limit=attack_time_limit), rounds=1, iterations=1
    )
    print("\n" + result.summary())
    assert result.outcome is AttackOutcome.CORRECT


def test_sarlock_falls_to_double_dip(benchmark, base_circuit, attack_time_limit):
    locked = lock_sarlock(base_circuit, num_key_bits=4, seed=2)
    result = benchmark.pedantic(
        lambda: double_dip_attack(locked, time_limit=attack_time_limit), rounds=1, iterations=1
    )
    print("\n" + result.summary())
    assert result.outcome is AttackOutcome.CORRECT


def test_ttlock_falls_to_fall(benchmark, base_circuit):
    locked = lock_ttlock(base_circuit, num_key_bits=4, seed=4)
    report = benchmark.pedantic(lambda: fall_attack(locked), rounds=1, iterations=1)
    print(f"\nFALL: candidates={report.num_candidates} keys={report.num_keys}")
    assert report.num_keys == 1


def test_harpoon_falls_to_incremental_unrolling(benchmark, base_circuit, attack_time_limit):
    locked = lock_harpoon(base_circuit, key_width=3, unlock_cycles=2, seed=2)
    result = benchmark.pedantic(
        lambda: int_attack(locked, time_limit=attack_time_limit, max_depth=8),
        rounds=1, iterations=1,
    )
    print("\n" + result.summary())
    assert result.outcome is AttackOutcome.CORRECT
