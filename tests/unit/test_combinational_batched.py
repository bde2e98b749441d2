"""The one-DIP-per-call loop of the combinational attacks (SAT / AppSAT).

Outcomes are pinned, and every recovered key is re-checked with the scalar
``repro.sim`` simulator, independently of the packed engine the attacks
answer oracle queries and verify keys with.  The DIP bound pins the loop
itself: each DIP's observation refutes at least one of the two keys the
miter set apart, so a 3-bit point-function lock falls within 2**3 - 1 DIPs.
"""

import pytest

from repro.attacks import appsat_attack, sat_attack
from repro.attacks.results import AttackOutcome, AttackResult
from repro.benchmarks_data.iscas89 import load_iscas89
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.baselines import lock_rll, lock_sarlock, lock_ttlock
from repro.sim.equivalence import scalar_random_equivalence_check

BUDGET = dict(time_limit=30.0)


@pytest.fixture(scope="module")
def base_circuit():
    return synthesize_fsm(random_fsm(8, 2, 2, seed=5), style="sop")


@pytest.fixture(scope="module")
def locked_variants(base_circuit):
    return {
        "rll": lock_rll(base_circuit, 5, seed=1),
        "sarlock": lock_sarlock(base_circuit, num_key_bits=4, seed=2),
        "ttlock": lock_ttlock(base_circuit, num_key_bits=4, seed=2),
    }


def scalar_key_check(locked, key):
    """Re-check ``key`` with the scalar reference simulator.

    Seed 1 draws other vectors than the attacks' own verification (seed 0).
    """
    return scalar_random_equivalence_check(
        locked.original, locked.circuit, key_assignment=key,
        num_vectors=256, seed=1,
    ).equivalent


class TestSatAttackEngines:
    @pytest.mark.parametrize("scheme", ["rll", "sarlock", "ttlock"])
    def test_packed_and_scalar_agree(self, locked_variants, scheme):
        """The key the attack verified with the packed engine passes the scalar check."""
        locked = locked_variants[scheme]
        result = sat_attack(locked, **BUDGET)
        assert result.outcome is AttackOutcome.CORRECT
        assert result.details["oracle_queries"] == result.iterations
        assert scalar_key_check(locked, result.key)

    def test_engine_validation(self, locked_variants):
        """The attack has one loop: no engine knob is accepted."""
        for engine in ("packed", "scalar"):
            with pytest.raises(TypeError):
                sat_attack(locked_variants["rll"], engine=engine, **BUDGET)


class TestDipBound:
    @pytest.fixture(scope="class")
    def s1196(self):
        return load_iscas89("s1196").circuit

    @pytest.mark.parametrize("seed", [1, 7, 11])
    @pytest.mark.parametrize("lock", [lock_sarlock, lock_ttlock],
                             ids=["sarlock", "ttlock"])
    def test_three_bit_point_function_within_seven_dips(self, s1196, lock, seed):
        locked = lock(s1196, num_key_bits=3, seed=seed)
        result = sat_attack(locked, **BUDGET)
        assert result.outcome is AttackOutcome.CORRECT
        assert 1 <= result.iterations <= 2 ** 3 - 1
        assert result.details["oracle_queries"] == result.iterations
        assert scalar_key_check(locked, result.key)


class TestAppSatEngines:
    def test_packed_and_scalar_agree_on_sarlock(self, locked_variants):
        """AppSAT converges before its first settle point; the scalar check agrees."""
        locked = locked_variants["sarlock"]
        result = appsat_attack(locked, **BUDGET)
        assert result.outcome is AttackOutcome.CORRECT
        assert result.details["approximate"] is False
        assert result.iterations < 4
        assert scalar_key_check(locked, result.key)

    def test_engine_validation(self, locked_variants):
        for engine in ("packed", "scalar"):
            with pytest.raises(TypeError):
                appsat_attack(locked_variants["rll"], engine=engine, **BUDGET)


class TestAttackResultSerialisation:
    def test_round_trip_preserves_everything(self):
        result = AttackResult(
            attack="sat", outcome=AttackOutcome.CNS,
            key={"k0": 1, "k1": 0}, iterations=7, runtime_seconds=1.25,
            details={"oracle_queries": 12},
        )
        rebuilt = AttackResult.from_dict(result.to_dict())
        assert rebuilt.attack == "sat"
        assert rebuilt.outcome is AttackOutcome.CNS
        assert rebuilt.key == {"k0": 1, "k1": 0}
        assert rebuilt.iterations == 7
        assert rebuilt.runtime_seconds == 1.25
        assert rebuilt.details["oracle_queries"] == 12
        assert rebuilt.broke_defense is result.broke_defense

    def test_non_json_details_are_coerced_not_dropped(self):
        class Weird:
            def __str__(self):
                return "weird-object"

        result = AttackResult(
            attack="sat", outcome=AttackOutcome.FAIL, details={"thing": Weird()}
        )
        data = result.to_dict()
        assert data["details"]["thing"] == "weird-object"
        assert AttackResult.from_dict(data).details["thing"] == "weird-object"

    def test_live_attack_result_survives_round_trip(self, locked_variants):
        result = sat_attack(locked_variants["ttlock"], **BUDGET)
        rebuilt = AttackResult.from_dict(result.to_dict())
        assert rebuilt.outcome == result.outcome
        assert rebuilt.key == result.key
        assert rebuilt.iterations == result.iterations
