"""Unit tests for attack building blocks: oracles, results, unrolling, FALL
structural analysis and DANA clustering/NMI."""

import pytest

from repro.attacks.dana import (
    cluster_registers,
    dana_attack,
    normalized_mutual_information,
    register_dependency_graph,
)
from repro.attacks.fall import fall_attack
from repro.attacks.results import AttackOutcome, AttackResult, format_runtime
from repro.attacks.unroll import encode_unrolled
from repro.benchmarks_data.generator import word_structured_circuit
from repro.benchmarks_data.iscas89 import s27_circuit
from repro.engine.batch_oracle import BatchedCombinationalOracle, BatchedSequentialOracle
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.baselines import lock_ttlock
from repro.locking.cutelock_str import CuteLockStr
from repro.sat.solver import Solver
from repro.sat.tseitin import TseitinEncoder
from repro.sim.seqsim import SequentialSimulator


class TestResults:
    def test_outcome_break_flag(self):
        assert AttackOutcome.CORRECT.is_break
        assert not AttackOutcome.CNS.is_break
        assert not AttackOutcome.WRONG_KEY.is_break

    def test_summary_contains_key(self):
        result = AttackResult(attack="sat", outcome=AttackOutcome.CORRECT,
                              key={"k1": 1, "k0": 0}, iterations=3, runtime_seconds=1.5)
        assert "sat" in result.summary()
        assert result.broke_defense

    def test_format_runtime(self):
        assert format_runtime(62.5) == "1m2.500s"
        assert format_runtime(3700).startswith("1h")


class TestOracles:
    def test_combinational_oracle_exposes_state(self):
        oracle = BatchedCombinationalOracle(s27_circuit())
        assert any(net.endswith("__ns") for net in oracle.output_nets)
        response = oracle.query({net: 0 for net in oracle.input_nets})
        assert set(response) == set(oracle.output_nets)
        assert oracle.queries == 1

    def test_sequential_oracle_matches_simulator(self):
        circuit = s27_circuit()
        oracle = BatchedSequentialOracle(circuit)
        vectors = [{net: (t + i) % 2 for i, net in enumerate(circuit.inputs)} for t in range(6)]
        responses = oracle.query(vectors)
        sim = SequentialSimulator(circuit)
        expected = [sim.outputs(vec) for vec in vectors]
        assert responses == expected
        assert oracle.cycles == 6


class TestUnrolling:
    def test_unrolled_frames_match_simulation(self):
        circuit = s27_circuit()
        depth = 4
        encoder = TseitinEncoder()
        unrolled = encode_unrolled(encoder, circuit, depth, prefix="U#")
        solver = Solver()
        solver.add_clauses(encoder.cnf.clauses)

        vectors = [{net: (t * 3 + i) % 2 for i, net in enumerate(circuit.inputs)}
                   for t in range(depth)]
        assumptions = []
        for frame, vector in enumerate(vectors):
            for net, value in vector.items():
                name = unrolled.frame_inputs[frame][net]
                assumptions.append(encoder.literal(name, bool(value)))
        assert solver.solve(assumptions=assumptions) is True
        model = solver.model()

        sim = SequentialSimulator(circuit)
        for frame, vector in enumerate(vectors):
            expected = sim.outputs(vector)
            for out, value in expected.items():
                name = unrolled.frame_outputs[frame][out]
                assert model[encoder.varmap[name]] == value

    def test_key_nets_shared_across_frames(self):
        fsm = random_fsm(4, 1, 1, seed=2)
        circuit = synthesize_fsm(fsm, style="sop")
        locked = CuteLockStr(num_keys=2, key_width=2, seed=1).lock(circuit)
        encoder = TseitinEncoder()
        unrolled = encode_unrolled(encoder, locked.circuit, 3, prefix="U#", key_prefix="K@")
        assert unrolled.key_nets == {net: f"K@{net}" for net in locked.key_inputs}
        for frame in range(3):
            for net in locked.key_inputs:
                assert unrolled.frame_inputs[frame][net] == f"K@{net}"


class TestFallUnit:
    def test_finds_ttlock_key(self):
        fsm = random_fsm(8, 2, 2, seed=5)
        circuit = synthesize_fsm(fsm, style="sop")
        locked = lock_ttlock(circuit, num_key_bits=4, seed=4)
        report = fall_attack(locked)
        assert report.num_candidates >= 1
        assert report.num_keys >= 1
        recovered = report.confirmed_keys[0]
        expected = locked.correct_key_bits(0)
        assert recovered == expected

    def test_no_candidates_without_keys(self):
        report = fall_attack(s27_circuit())
        assert report.num_candidates == 0
        assert report.details.get("reason") == "no key inputs"

    def test_report_to_attack_result(self):
        report = fall_attack(s27_circuit())
        assert report.to_attack_result().outcome is AttackOutcome.FAIL


class TestDanaUnit:
    def test_dependency_graph(self):
        circuit = s27_circuit()
        graph = register_dependency_graph(circuit)
        assert set(graph) == set(circuit.dffs)
        assert graph["G6"]  # G6's next state depends on other registers

    def test_word_structure_recovered_on_clean_design(self):
        generated = word_structured_circuit(
            "toy", num_inputs=2, num_outputs=2, word_sizes=(4, 4, 4), seed=3
        )
        report = dana_attack(generated.circuit, generated.register_groups)
        assert report.nmi_score is not None
        assert report.nmi_score >= 0.6

    def test_locking_reduces_nmi(self):
        generated = word_structured_circuit(
            "toy", num_inputs=2, num_outputs=2, word_sizes=(4, 4, 4), seed=3
        )
        clean = dana_attack(generated.circuit, generated.register_groups)
        locked = CuteLockStr(num_keys=4, key_width=3, num_locked_ffs=12,
                             donors_per_ff=2, seed=1).lock(generated.circuit)
        attacked = dana_attack(locked, generated.register_groups)
        assert attacked.nmi_score <= clean.nmi_score

    def test_nmi_bounds_and_identity(self):
        labels = {f"r{i}": i // 3 for i in range(9)}
        assert normalized_mutual_information(labels, labels) == pytest.approx(1.0)
        shuffled = {k: (v + 1) % 3 for k, v in labels.items()}
        assert normalized_mutual_information(labels, shuffled) == pytest.approx(1.0)
        singletons = {k: i for i, k in enumerate(labels)}
        score = normalized_mutual_information(labels, singletons)
        assert 0.0 <= score <= 1.0

    def test_nmi_degenerate_single_cluster(self):
        labels = {f"r{i}": i % 2 for i in range(6)}
        one_cluster = {k: 0 for k in labels}
        assert normalized_mutual_information(labels, one_cluster) == 0.0

    def test_clustering_rounds_terminate(self):
        generated = word_structured_circuit(
            "toy", num_inputs=2, num_outputs=1, word_sizes=(3, 3), seed=4
        )
        clusters, rounds = cluster_registers(generated.circuit)
        assert rounds <= 8
        assert sum(len(c) for c in clusters) == len(generated.circuit.dffs)
