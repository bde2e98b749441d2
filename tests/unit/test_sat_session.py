"""Unit tests for the unified solving layer: SolveSession semantics, SolverTelemetry serialization/merging and the end-to-end telemetry
spine (attack details -> campaign records)."""

import time
from functools import partial

import pytest

from repro.attacks import (
    FallReport,
    appsat_attack,
    bmc_attack,
    double_dip_attack,
    fall_attack,
    int_attack,
    kc2_attack,
    rane_attack,
    sat_attack,
)
from repro.attacks.results import AttackOutcome
from repro.attacks.sequential_core import sequential_oracle_guided_attack
from repro.benchmarks_data.iscas89 import s27_circuit
from repro.campaign.executor import execute_job_attempt
from repro.campaign.jobs import register_job_kind
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.baselines import lock_rll
from repro.locking.cutelock_str import CuteLockStr
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.sat.session import (
    SolveSession,
    SolverTelemetry,
    capture_solver_telemetry,
)

#: Counter keys every serialized telemetry block must carry.
TELEMETRY_KEYS = {
    "backend", "decisions", "propagations", "conflicts", "learned_clauses",
    "restarts", "solve_calls", "sat", "unsat", "limited", "solve_seconds",
    "phase_seconds",
}


class TestSolverTelemetry:
    def test_serialization_round_trip(self):
        telemetry = SolverTelemetry(backend="cdcl")
        telemetry.note_call(
            {"decisions": 5, "propagations": 40, "conflicts": 2,
             "learned_clauses": 2, "restarts": 1, "solve_calls": 1},
            answer=True, seconds=0.25, phase="dip-search",
        )
        telemetry.note_call({}, answer=None, seconds=0.5, phase="key-extract")
        payload = telemetry.to_dict()
        assert set(payload) == TELEMETRY_KEYS
        rebuilt = SolverTelemetry.from_dict(payload)
        assert rebuilt == telemetry
        # A JSON round trip (what campaign stores do) is also stable.
        import json

        assert SolverTelemetry.from_dict(json.loads(json.dumps(payload))) == telemetry

    def test_merge_aggregates_and_tracks_backend(self):
        a = SolverTelemetry(backend="cdcl")
        a.note_call({"conflicts": 3, "solve_calls": 1}, answer=False,
                    seconds=0.1, phase="verify")
        b = SolverTelemetry(backend="cdcl")
        b.note_call({"conflicts": 4, "solve_calls": 2}, answer=True,
                    seconds=0.2, phase="verify")
        a.merge(b)
        assert a.conflicts == 7 and a.solve_calls == 3
        assert (a.sat, a.unsat, a.limited) == (1, 1, 0)
        assert a.backend == "cdcl"
        assert a.phase_seconds["verify"] == pytest.approx(0.3)
        # An empty accumulator (a campaign fold, a sleep job's block) takes
        # the backend of the first block that has one, and keeps it.
        total = SolverTelemetry()
        total.merge(SolverTelemetry())
        assert total.backend == ""
        total.merge(a)
        total.merge(SolverTelemetry())
        assert total.backend == "cdcl" and total.conflicts == 7

    def test_from_dict_counts_only_numeric_values(self):
        # Store records are outside input: a block with missing, mistyped or
        # non-numeric fields folds to zeros instead of raising.
        block = SolverTelemetry.from_dict({
            "backend": None, "conflicts": "12", "decisions": 5,
            "propagations": 7.0, "solve_seconds": "slow",
            "phase_seconds": {"verify": "x", "dip-search": 0.5},
        })
        assert block.backend == ""
        assert (block.conflicts, block.decisions, block.propagations) == (0, 5, 7)
        assert block.solve_seconds == 0.0
        assert block.phase_seconds == {"dip-search": 0.5}
        assert SolverTelemetry.from_dict({"phase_seconds": [1.0]}) == SolverTelemetry()


def _xor_locked_circuit():
    """One-gate locked circuit: y = a xor k (correct key k=0)."""
    circuit = Circuit("tiny")
    circuit.add_input("a")
    circuit.add_input("k", is_key=True)
    circuit.add_gate("y", GateType.XOR, ["a", "k"])
    circuit.add_output("y")
    return circuit


class TestSolveSession:
    def test_incremental_queries_and_model(self):
        session = SolveSession()
        encoder = session.encoder
        encoder.encode(_xor_locked_circuit())
        assert session.solve(assumptions=[session.literal("y", True)]) is True
        model = session.model()
        a = model[encoder.var("a")]
        k = model[encoder.var("k")]
        assert a ^ k == 1
        # Add a constraint through the encoder: the next solve syncs it.
        encoder.add_value("k", 0)
        assert session.solve(
            assumptions=[session.literal("y", True), session.literal("a", False)]
        ) is False

    def test_telemetry_accumulates_across_queries_and_resets(self):
        session = SolveSession()
        session.encoder.cnf.add_clause([1, 2])
        session.encoder.cnf.add_clause([-1, 2])
        assert session.solve(phase="alpha") is True
        assert session.solve(assumptions=[-2], phase="beta") is False
        telemetry = session.telemetry
        assert telemetry.solve_calls == 2
        assert telemetry.sat == 1 and telemetry.unsat == 1
        assert set(telemetry.phase_seconds) == {"alpha", "beta"}
        first_props = telemetry.propagations

        # A fresh capture frame starts from zero and records only the new
        # activity, while the session block keeps accumulating.
        with capture_solver_telemetry() as frame:
            assert session.solve(phase="alpha") is True
        assert frame.solve_calls == 1
        assert frame.sat == 1 and frame.unsat == 0
        assert frame.propagations <= max(first_props, 1)
        assert set(frame.phase_seconds) == {"alpha"}
        assert telemetry.solve_calls == 3 and telemetry.sat == 2
        assert telemetry.propagations == first_props + frame.propagations

    def test_deadline_clamps_queries(self):
        session = SolveSession(deadline=time.monotonic() - 1.0)
        assert session.remaining() == 0.0
        # Hard pigeonhole-ish instance would take a while; the expired
        # deadline forces the floored 1ms budget, so the call still returns.
        clauses = []
        holes, pigeons = 6, 7
        var = lambda p, h: p * holes + h + 1  # noqa: E731
        for p in range(pigeons):
            clauses.append([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append([-var(p1, h), -var(p2, h)])
        for clause in clauses:
            session.encoder.cnf.add_clause(clause)
        answer = session.solve()
        assert answer in (None, False)
        if answer is None:
            assert session.telemetry.limited == 1

    def test_reset_solver_resyncs_and_keeps_telemetry(self):
        session = SolveSession()
        session.encoder.cnf.add_clause([1])
        assert session.solve() is True
        calls_before = session.telemetry.solve_calls
        session.reset_solver()
        assert session.solve(assumptions=[-1]) is False
        assert session.telemetry.solve_calls == calls_before + 1

    def test_level0_values_are_none_once_unsat(self):
        session = SolveSession()
        session.encoder.cnf.add_clause([1])
        session.encoder.cnf.add_clause([-1, 2])
        session.encoder.cnf.add_clause([3, 4])
        assert session.level0_values() == {1: 1, 2: 1}
        session.encoder.cnf.add_clause([-2])
        assert session.level0_values() is None

    def test_lemmas_sync_after_the_cnf_and_relog_after_reset(self, tmp_path):
        session = SolveSession(proof_path=tmp_path)
        cnf = session.encoder.cnf
        cnf.add_clause([1, 2])
        cnf.add_clause([-1, 2])
        session.encoder.lemmas.append((2,))
        assert session.level0_values() == {2: 1}
        assert session._proof.steps == [("", (2,))]
        session.reset_solver()
        assert session.solve(assumptions=[-2]) is False
        ((cnf_path, proof_path),) = session.certificates
        # The lemma is a proof addition, never an input clause.
        assert "\n2 0\n" not in "\n" + open(cnf_path).read()
        assert open(proof_path).read().startswith("2 0\n")

    def test_shared_telemetry_across_sessions(self):
        # Each session keeps its own block; an attack-wide block is their
        # merge, and a capture frame sees every session's calls.
        with capture_solver_telemetry() as frame:
            one = SolveSession()
            two = SolveSession()
            one.encoder.cnf.add_clause([1])
            two.encoder.cnf.add_clause([2])
            one.solve()
            two.solve()
        assert one.telemetry.solve_calls == 1
        assert two.telemetry.solve_calls == 1
        shared = SolverTelemetry()
        shared.merge(one.telemetry)
        shared.merge(two.telemetry)
        assert shared.solve_calls == 2 and shared.backend == "cdcl"
        assert shared == frame

    def test_capture_frames_nest(self):
        with capture_solver_telemetry() as outer:
            session = SolveSession()
            session.encoder.cnf.add_clause([1])
            session.solve()
            with capture_solver_telemetry() as inner:
                session.solve(assumptions=[-1])
        assert outer.solve_calls == 2
        assert inner.solve_calls == 1

    def test_key_recovery_reports_the_cdcl_solver(self):
        locked = lock_rll(synthesize_fsm(random_fsm(6, 2, 2, seed=3)),
                          4, seed=1)
        result = sat_attack(locked, time_limit=30.0)
        assert result.outcome.value == "correct"
        assert result.details["solver"]["backend"] == "cdcl"


class TestAttackTelemetryBlocks:
    """Every attack kind must report the uniform solver block."""

    @pytest.fixture(scope="class")
    def rll_locked(self):
        circuit = synthesize_fsm(random_fsm(6, 2, 2, seed=3))
        return lock_rll(circuit, 4, seed=1)

    @pytest.fixture(scope="class")
    def str_locked(self):
        circuit = synthesize_fsm(random_fsm(6, 2, 2, seed=3))
        return CuteLockStr(num_keys=2, key_width=2, num_locked_ffs=1,
                           seed=0).lock(circuit)

    def _check_block(self, result, *, expect_solving=True):
        block = result.details["solver"]
        assert set(block) == TELEMETRY_KEYS
        if expect_solving:
            assert block["solve_calls"] >= 1
            assert block["propagations"] >= 1

    def test_sat_attack_block(self, rll_locked):
        self._check_block(sat_attack(rll_locked, time_limit=30.0))

    def test_appsat_block(self, rll_locked):
        self._check_block(appsat_attack(rll_locked, time_limit=30.0))

    def test_double_dip_block(self, rll_locked):
        self._check_block(double_dip_attack(rll_locked, time_limit=30.0))

    def test_bmc_block(self, str_locked):
        self._check_block(
            bmc_attack(str_locked, time_limit=20.0, max_depth=4, max_iterations=8))

    def test_int_block(self, str_locked):
        self._check_block(
            int_attack(str_locked, time_limit=20.0, max_depth=4, max_iterations=8))

    def test_kc2_block(self, str_locked):
        self._check_block(
            kc2_attack(str_locked, time_limit=20.0, max_depth=4, max_iterations=8))

    def test_rane_block(self, str_locked):
        result = rane_attack(str_locked, time_limit=20.0, depth=4,
                             max_iterations=8)
        self._check_block(result)
        assert "verify_depth" in result.details

    def test_fall_block(self, str_locked):
        report = fall_attack(str_locked)
        block = report.details["solver"]
        assert set(block) == TELEMETRY_KEYS
        # FALL only solves when it finds candidates; the block must exist
        # (and survive the JSON form Table V's campaign cells store) either way.
        assert FallReport.from_dict(report.to_dict()).details["solver"] == block


class TestAttackTimeLimit:
    """Every oracle-guided attack refuses a budget that is not > 0 seconds."""

    ATTACKS = [sat_attack, appsat_attack, double_dip_attack, bmc_attack,
               int_attack, kc2_attack, rane_attack]

    @pytest.fixture(scope="class")
    def rll_locked(self):
        return lock_rll(synthesize_fsm(random_fsm(6, 2, 2, seed=3)),
                        4, seed=1)

    @pytest.mark.parametrize("attack", ATTACKS, ids=lambda attack: attack.__name__)
    @pytest.mark.parametrize("time_limit", [0.0, -1.0, float("nan")])
    def test_non_positive_or_nan_time_limit_rejected(self, rll_locked, attack, time_limit):
        with pytest.raises(ValueError, match="time_limit"):
            attack(rll_locked, time_limit=time_limit)

    def test_rane_has_no_counterexample_batch(self, rll_locked):
        """RANE verifies one counterexample per solver call: no batch knob."""
        with pytest.raises(TypeError):
            rane_attack(rll_locked, time_limit=5.0, cex_batch=4)


class TestAttackKeyCheckSize:
    """A key check of no vectors, sequences or cycles would pass any key, so
    every oracle-guided attack refuses one before its first solve."""

    CASES = [
        pytest.param(sat_attack, "verify_vectors", id="sat"),
        pytest.param(appsat_attack, "verify_vectors", id="appsat"),
        pytest.param(double_dip_attack, "verify_vectors", id="double_dip"),
        pytest.param(rane_attack, "verify_sequences", id="rane-sequences"),
        pytest.param(rane_attack, "verify_length", id="rane-length"),
        pytest.param(
            partial(sequential_oracle_guided_attack, attack_name="bbo", incremental=False),
            "verify_sequences", id="bbo-sequences",
        ),
        pytest.param(
            partial(sequential_oracle_guided_attack, attack_name="int", incremental=True),
            "verify_length", id="int-length",
        ),
    ]

    @pytest.fixture(scope="class")
    def rll_locked(self):
        return lock_rll(synthesize_fsm(random_fsm(6, 2, 2, seed=3)),
                        4, seed=1)

    @pytest.mark.parametrize("size", [0, -3])
    @pytest.mark.parametrize("attack,knob", CASES)
    def test_empty_key_check_rejected_before_solving(
        self, rll_locked, attack, knob, size, monkeypatch
    ):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the key check was validated")

        monkeypatch.setattr(SolveSession, "solve", solve)
        with pytest.raises(ValueError, match="must be >= 1"):
            attack(rll_locked, time_limit=5.0, **{knob: size})

    def test_bbo_without_verification_no_longer_breaks_cute_lock(self):
        """With no sequences checked, BBO's wrong static key used to pass as
        ``correct`` (``broke_defense=True``) on Cute-Lock-Str s27."""
        locked = CuteLockStr(num_keys=4, key_width=2, seed=4).lock(s27_circuit())
        kwargs = dict(attack_name="BBO", incremental=False, max_depth=8)
        with pytest.raises(ValueError, match="num_sequences must be >= 1"):
            sequential_oracle_guided_attack(locked, verify_sequences=0, **kwargs)
        result = sequential_oracle_guided_attack(locked, **kwargs)
        assert result.outcome is AttackOutcome.WRONG_KEY


class TestAttackDepthSize:
    """An unrolling of no frames has no distinguishing sequence and verifies
    nothing: BBO/INT spun on it until the time limit, a negative depth failed
    only after solving, and RANE at depth 0 reported a wrong key.  Each
    unrolling attack refuses a depth below 1 before its first solve."""

    @pytest.fixture(scope="class")
    def str_locked(self):
        circuit = synthesize_fsm(random_fsm(8, 2, 2, seed=5))
        return CuteLockStr(num_keys=4, key_width=2, num_locked_ffs=2, seed=3).lock(circuit)

    @pytest.mark.parametrize("size", [0, -1])
    @pytest.mark.parametrize("attack,knob", [
        pytest.param(int_attack, "initial_depth", id="int"),
        pytest.param(
            partial(sequential_oracle_guided_attack, attack_name="bbo", incremental=False),
            "initial_depth", id="bbo",
        ),
        pytest.param(rane_attack, "depth", id="rane-depth"),
        pytest.param(rane_attack, "initial_depth", id="rane-initial-depth"),
    ])
    def test_depth_below_one_rejected_before_solving(
        self, str_locked, attack, knob, size, monkeypatch
    ):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the depth was validated")

        monkeypatch.setattr(SolveSession, "solve", solve)
        with pytest.raises(ValueError, match=f"^{knob} must be >= 1, got {size}$"):
            attack(str_locked, time_limit=3.0, **{knob: size})


class TestCampaignRecordTelemetry:
    def test_attack_job_record_carries_solver_block(self):
        def tiny_attack_job(params):
            circuit = synthesize_fsm(random_fsm(6, 2, 2, seed=3))
            locked = lock_rll(circuit, 4, seed=1)
            result = sat_attack(locked, time_limit=30.0)
            return {"result": result.to_dict()}

        register_job_kind("tiny-sat-attack", tiny_attack_job, override=True)
        record = execute_job_attempt("tiny-sat-attack", {})
        assert record["status"] == "completed"
        block = record["solver"]
        assert set(block) == TELEMETRY_KEYS
        # The record-level block aggregates every session of the attempt
        # (attack + verification), so it is at least the attack's own block.
        attack_block = record["payload"]["result"]["details"]["solver"]
        assert block["solve_calls"] >= attack_block["solve_calls"]
        assert block["conflicts"] >= attack_block["conflicts"]

    def test_non_solving_job_record_has_zero_block(self):
        record = execute_job_attempt("sleep", {"seconds": 0.0})
        assert record["solver"]["solve_calls"] == 0
        assert record["solver"]["propagations"] == 0

    def test_failing_job_record_still_carries_block(self):
        record = execute_job_attempt("sleep", {"fail": True})
        assert record["status"] == "error"
        assert set(record["solver"]) == TELEMETRY_KEYS
