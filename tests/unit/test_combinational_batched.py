"""The one-DIP-per-call loop of the combinational attacks (SAT / AppSAT).

Outcomes are pinned, and every recovered key is re-checked with the scalar
``repro.sim`` simulator, independently of the packed engine the attacks
answer oracle queries and verify keys with.  The DIP bound pins the loop
itself: each DIP's observation refutes at least one of the two keys the
miter set apart, so a 3-bit point-function lock falls within 2**3 - 1 DIPs.
The edge cases pin the miter's key-cone fold: an oracle that disagrees
outside every key's fanout, a key that reaches no output and a functional
input no gate reads.  AppSAT shares the exact attack's guards and
key-extract step: no shared output ends FAIL, a limited extraction TIMEOUT.
"""

import pytest

from repro.attacks import appsat_attack, double_dip_attack, sat_attack
from repro.attacks.results import AttackOutcome, AttackResult
from repro.attacks.sat_attack import _DipMiter, _extract_dip
from repro.benchmarks_data.iscas89 import load_iscas89
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.baselines import lock_rll, lock_sarlock, lock_ttlock
from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import GateType
from repro.sat.session import SolveSession
from repro.sat.tseitin import TseitinEncoder
from repro.sim.equivalence import scalar_random_equivalence_check

BUDGET = dict(time_limit=30.0)


@pytest.fixture(scope="module")
def base_circuit():
    return synthesize_fsm(random_fsm(8, 2, 2, seed=5))


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

    def test_attack_name_is_not_an_option(self, locked_variants):
        """The result, trace markers and certificates are always named ``sat``."""
        with pytest.raises(TypeError):
            sat_attack(locked_variants["rll"], attack_name="x", **BUDGET)


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


COMBINATIONAL_ATTACKS = pytest.mark.parametrize(
    "attack", [sat_attack, double_dip_attack, appsat_attack],
    ids=["sat", "double-dip", "appsat"],
)


class TestKeyConeEdgeCases:
    @pytest.fixture(scope="class")
    def s27_sarlock(self):
        return lock_sarlock(load_iscas89("s27").circuit, num_key_bits=2, seed=3)

    @COMBINATIONAL_ATTACKS
    def test_oracle_mismatch_outside_every_key_fanout_ends_cns(self, s27_sarlock, attack):
        """No key explains an oracle that inverts a key-independent next-state net."""
        locked = s27_sarlock
        keyed = locked.circuit.combinational_view().key_dependent_gates()
        q = next(q for q in locked.original.dffs if f"{q}__ns" not in keyed)
        oracle = locked.original.copy()
        inverted = oracle.fresh_net("inv")
        oracle.add_gate(inverted, GateType.NOT, [oracle.dffs[q].d])
        oracle.replace_dff_input(q, inverted)
        result = attack(locked, oracle, **BUDGET)
        assert result.outcome is AttackOutcome.CNS

    @COMBINATIONAL_ATTACKS
    def test_dead_key_and_unread_input(self, s27_sarlock, attack):
        """A key that reaches no output and an input no gate reads keep their variables."""
        locked = s27_sarlock.circuit.copy()
        original = s27_sarlock.original.copy()
        for circuit in (locked, original):
            circuit.add_input("unread")
        locked.add_input("dead_key", is_key=True)
        locked.add_gate("dead_end", GateType.AND, ["dead_key", "G0"])
        view = locked.combinational_view()
        miter = _DipMiter(SolveSession(), view, view.outputs)
        assert miter.search()
        assert sorted(miter.dip()) == sorted(set(view.inputs) - set(view.key_inputs))

        result = attack(locked, original, **BUDGET)
        assert result.outcome is AttackOutcome.CORRECT
        assert sorted(result.key) == sorted(view.key_inputs)
        assert scalar_random_equivalence_check(
            original, locked, key_assignment=result.key, num_vectors=256, seed=1,
        ).equivalent

    def test_dip_read_refuses_a_net_without_a_literal(self):
        """A DIP bit is never invented; an inverted input reads through its literal."""
        encoder = TseitinEncoder()
        circuit = Circuit("inv")
        circuit.add_input("a")
        circuit.add_gate("na", GateType.NOT, ["a"])
        circuit.add_output("na")
        encoder.encode(circuit)
        model = {encoder.var("a"): 1}
        assert _extract_dip(encoder, model, ["a", "na"]) == {"a": 1, "na": 0}
        with pytest.raises(CircuitError, match="no CNF literal"):
            _extract_dip(encoder, model, ["a", "missing"])


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

    def test_no_shared_output_fails_like_sat_and_double_dip(self):
        """An oracle whose output is named differently leaves nothing to compare."""
        locked = Circuit("locked")
        locked.add_input("a")
        locked.add_input("k", is_key=True)
        locked.add_gate("y", GateType.XOR, ["a", "k"])
        locked.add_output("y")
        oracle = Circuit("oracle")
        oracle.add_input("a")
        oracle.add_gate("z", GateType.BUF, ["a"])
        oracle.add_output("z")
        for attack in (sat_attack, double_dip_attack, appsat_attack):
            result = attack(locked, oracle, **BUDGET)
            assert result.outcome is AttackOutcome.FAIL
            assert result.key is None
            assert "share no outputs" in result.details["reason"]

    def test_limited_key_extraction_ends_timeout(self, locked_variants, monkeypatch):
        """A key-extract call that hits its limit proves nothing: TIMEOUT, not CNS."""
        solve = SolveSession.solve

        def limited_key_extract(session, *args, **kwargs):
            if kwargs.get("phase") == "key-extract":
                return None
            return solve(session, *args, **kwargs)

        monkeypatch.setattr(SolveSession, "solve", limited_key_extract)
        for attack in (sat_attack, double_dip_attack, appsat_attack):
            result = attack(locked_variants["sarlock"], **BUDGET)
            assert result.outcome is AttackOutcome.TIMEOUT
            assert result.details["reason"] == "solver limit during key extraction"


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
