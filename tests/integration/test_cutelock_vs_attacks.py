"""Integration tests: the paper's central security claims.

These tests exercise the full pipeline — benchmark generation, locking,
oracle construction, attack execution, key verification — and assert the
*qualitative* results of the paper's evaluation:

* no static-key oracle-guided attack recovers a working key against either
  Cute-Lock variant;
* collapsing the schedule to a single repeated key (the paper's validation
  experiment) makes the same attacks succeed, proving the attacks themselves
  are implemented faithfully;
* the removal attacks (FALL, DANA) lose their leverage on Cute-Lock-Str.
"""

import pytest

from repro.attacks import (
    bmc_attack,
    dana_attack,
    fall_attack,
    int_attack,
    kc2_attack,
    rane_attack,
    sat_attack,
)
from repro.attacks.results import AttackOutcome
from repro.benchmarks_data.generator import word_structured_circuit
from repro.benchmarks_data.iscas89 import s27_circuit
from repro.fsm.random_fsm import random_fsm, sequence_detector_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.base import KeySchedule
from repro.locking.cutelock_beh import CuteLockBeh
from repro.locking.cutelock_str import CuteLockStr

ATTACK_BUDGET = dict(time_limit=30.0)


@pytest.fixture(scope="module")
def str_locked():
    """Cute-Lock-Str on a small random sequential benchmark."""
    fsm = random_fsm(8, 2, 2, seed=5)
    circuit = synthesize_fsm(fsm)
    locked = CuteLockStr(num_keys=4, key_width=2, num_locked_ffs=1, seed=3).lock(circuit)
    return locked


@pytest.fixture(scope="module")
def str_collapsed():
    """The same lock reduced to a single repeated key (paper Section IV-A)."""
    fsm = random_fsm(8, 2, 2, seed=5)
    circuit = synthesize_fsm(fsm)
    schedule = KeySchedule(width=2, values=(2, 2, 2, 2))
    return CuteLockStr(num_keys=4, key_width=2, num_locked_ffs=1, seed=3).lock(
        circuit, schedule=schedule
    )


@pytest.fixture(scope="module")
def beh_locked():
    det = sequence_detector_fsm("1001")
    locked_fsm = CuteLockBeh(num_keys=4, key_width=3, seed=2).lock(det)
    return locked_fsm.synthesize()


class TestCuteLockStrResistsOracleGuidedAttacks:
    def test_sat_attack_does_not_break(self, str_locked):
        result = sat_attack(str_locked, **ATTACK_BUDGET)
        assert not result.broke_defense
        assert result.outcome in (AttackOutcome.CNS, AttackOutcome.WRONG_KEY,
                                  AttackOutcome.TIMEOUT, AttackOutcome.FAIL)

    def test_bmc_attack_does_not_break(self, str_locked):
        result = bmc_attack(str_locked, max_depth=8, **ATTACK_BUDGET)
        assert not result.broke_defense

    def test_int_attack_does_not_break(self, str_locked):
        result = int_attack(str_locked, max_depth=8, **ATTACK_BUDGET)
        assert not result.broke_defense

    def test_kc2_attack_does_not_break(self, str_locked):
        result = kc2_attack(str_locked, max_depth=8, **ATTACK_BUDGET)
        assert not result.broke_defense

    def test_rane_attack_does_not_break(self, str_locked):
        result = rane_attack(str_locked, depth=6, **ATTACK_BUDGET)
        assert not result.broke_defense

    def test_s27_paper_configuration_resists_sat(self):
        locked = CuteLockStr(num_keys=4, key_width=2, seed=2).lock(
            s27_circuit(), schedule=KeySchedule(width=2, values=(1, 3, 2, 0))
        )
        result = sat_attack(locked, **ATTACK_BUDGET)
        assert not result.broke_defense


class TestCuteLockBehResistsOracleGuidedAttacks:
    def test_sat_attack_does_not_break(self, beh_locked):
        result = sat_attack(beh_locked, **ATTACK_BUDGET)
        assert not result.broke_defense

    def test_int_attack_does_not_break(self, beh_locked):
        result = int_attack(beh_locked, max_depth=8, **ATTACK_BUDGET)
        assert not result.broke_defense


class TestSingleKeyReductionIsBroken:
    """The paper's sanity check: with all keys equal the attacks succeed."""

    def test_sat_attack_breaks_collapsed_schedule(self, str_collapsed):
        result = sat_attack(str_collapsed, **ATTACK_BUDGET)
        assert result.outcome is AttackOutcome.CORRECT

    def test_int_attack_breaks_collapsed_schedule(self, str_collapsed):
        result = int_attack(str_collapsed, max_depth=8, **ATTACK_BUDGET)
        assert result.outcome is AttackOutcome.CORRECT

    def test_rane_breaks_collapsed_schedule(self, str_collapsed):
        result = rane_attack(str_collapsed, depth=6, **ATTACK_BUDGET)
        assert result.outcome is AttackOutcome.CORRECT


class TestRemovalAttacksLoseLeverage:
    def test_fall_finds_nothing_on_cutelock_str(self, str_locked):
        report = fall_attack(str_locked)
        assert report.num_candidates == 0
        assert report.num_keys == 0

    def test_dana_nmi_drops_when_locked(self):
        generated = word_structured_circuit(
            "itc_like", num_inputs=3, num_outputs=2, word_sizes=(4, 4, 4, 4), seed=8
        )
        clean = dana_attack(generated.circuit, generated.register_groups)
        locked = CuteLockStr(num_keys=4, key_width=3, num_locked_ffs=16,
                             donors_per_ff=2, seed=2).lock(generated.circuit)
        attacked = dana_attack(locked, generated.register_groups)
        assert clean.nmi_score is not None and attacked.nmi_score is not None
        assert attacked.nmi_score < clean.nmi_score
