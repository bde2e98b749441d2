"""Integration tests: the attacks behave as published against the baselines.

These tests establish that the attack implementations are faithful — they
*do* break the schemes the literature says they break — which is what makes
the Cute-Lock resistance results meaningful rather than an artefact of weak
attacks.
"""

import pytest

from repro.attacks import appsat_attack, double_dip_attack, fall_attack, int_attack, sat_attack
from repro.attacks.results import AttackOutcome
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.baselines import (
    lock_harpoon,
    lock_rll,
    lock_sarlock,
    lock_ttlock,
)

ATTACK_BUDGET = dict(time_limit=30.0)


@pytest.fixture(scope="module")
def base_circuit():
    fsm = random_fsm(8, 2, 2, seed=5)
    return synthesize_fsm(fsm, style="sop")


class TestSatAttackBreaksClassicSchemes:
    @pytest.mark.parametrize("key_bits", [5, 6])
    def test_rll_broken(self, base_circuit, key_bits):
        locked = lock_rll(base_circuit, key_bits, seed=1)
        result = sat_attack(locked, **ATTACK_BUDGET)
        assert result.outcome is AttackOutcome.CORRECT
        assert result.iterations >= 1

    def test_sarlock_broken_with_enough_iterations(self, base_circuit):
        locked = lock_sarlock(base_circuit, num_key_bits=4, seed=2)
        result = sat_attack(locked, **ATTACK_BUDGET)
        assert result.outcome is AttackOutcome.CORRECT

    def test_ttlock_broken(self, base_circuit):
        locked = lock_ttlock(base_circuit, num_key_bits=4, seed=2)
        result = sat_attack(locked, **ATTACK_BUDGET)
        assert result.outcome is AttackOutcome.CORRECT


class TestApproximateAttacks:
    def test_appsat_returns_usable_key_on_sarlock(self, base_circuit):
        locked = lock_sarlock(base_circuit, num_key_bits=4, seed=2)
        result = appsat_attack(locked, **ATTACK_BUDGET)
        # AppSAT's approximate key is either exactly right or wrong on a tiny
        # fraction of inputs; either way the attack terminates with a key.
        assert result.key is not None
        assert result.outcome in (AttackOutcome.CORRECT, AttackOutcome.WRONG_KEY)

    def test_double_dip_breaks_sarlock(self, base_circuit):
        locked = lock_sarlock(base_circuit, num_key_bits=4, seed=2)
        result = double_dip_attack(locked, **ATTACK_BUDGET)
        assert result.outcome is AttackOutcome.CORRECT


class TestSequentialAttackBreaksSingleKeySequentialLocking:
    def test_harpoon_broken_by_incremental_unrolling(self, base_circuit):
        locked = lock_harpoon(base_circuit, key_width=3, unlock_cycles=2, seed=2)
        result = int_attack(locked, max_depth=8, **ATTACK_BUDGET)
        assert result.outcome is AttackOutcome.CORRECT


class TestFallBreaksTtlock:
    def test_fall_recovers_ttlock_key(self, base_circuit):
        locked = lock_ttlock(base_circuit, num_key_bits=4, seed=4)
        report = fall_attack(locked, verify_with_oracle=True)
        assert report.num_keys == 1
        assert report.confirmed_keys[0] == locked.correct_key_bits(0)
        assert report.to_attack_result().outcome is AttackOutcome.CORRECT
