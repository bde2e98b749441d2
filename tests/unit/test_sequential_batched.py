"""Sequential attacks (BMC / INT / KC2) on one DIS per solver call, plus the
batched oracles, passes wider than one machine word and the incremental
unroll extension they rely on.  Recovered keys are re-checked with the
scalar ``repro.sim`` sequential simulator."""

import random
import time

import pytest

from repro.attacks import bmc_attack, double_dip_attack, int_attack, kc2_attack
from repro.attacks.results import AttackOutcome
from repro.attacks.unroll import encode_unrolled, extend_unrolled
from repro.benchmarks_data.iscas89 import s27_circuit
from repro.engine.batch_oracle import BatchedSequentialOracle
from repro.engine.compiler import compile_circuit
from repro.engine.packed import PackedSimulator
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.base import KeySchedule, pack_key_bits
from repro.locking.baselines.rll import lock_rll
from repro.locking.cutelock_str import CuteLockStr
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.sat.solver import Solver
from repro.sat.tseitin import TseitinEncoder
from repro.sim.equivalence import scalar_sequential_equivalence_check
from repro.sim.logicsim import CombinationalSimulator
from repro.sim.seqsim import simulate_sequence


def _locked_fsm():
    fsm = random_fsm(8, 2, 2, seed=5)
    circuit = synthesize_fsm(fsm, style="sop")
    return CuteLockStr(num_keys=4, key_width=2, num_locked_ffs=1, seed=3).lock(circuit)


def _collapsed_fsm():
    fsm = random_fsm(8, 2, 2, seed=5)
    circuit = synthesize_fsm(fsm, style="sop")
    return CuteLockStr(num_keys=4, key_width=2, num_locked_ffs=1, seed=3).lock(
        circuit, schedule=KeySchedule(width=2, values=(2, 2, 2, 2))
    )


class TestDoubleDipGuards:
    def test_no_shared_outputs_fails_instead_of_degenerate_miter(self):
        locked = Circuit("locked")
        locked.add_input("a")
        locked.add_input("k", is_key=True)
        locked.add_gate("y", GateType.XOR, ["a", "k"])
        locked.add_output("y")
        oracle = Circuit("oracle")
        oracle.add_input("a")
        oracle.add_gate("z", GateType.BUF, ["a"])
        oracle.add_output("z")

        result = double_dip_attack(locked, oracle, time_limit=5.0)
        assert result.outcome is AttackOutcome.FAIL
        assert "share no outputs" in result.details["reason"]

    def test_still_breaks_simple_lock(self):
        locked = lock_rll(s27_circuit(), 3, seed=1)
        result = double_dip_attack(locked, time_limit=20.0)
        assert result.outcome is AttackOutcome.CORRECT


class TestRaggedSequentialBatches:
    def test_query_batch_matches_scalar_per_sequence(self):
        circuit = s27_circuit()
        rng = random.Random(3)
        sequences = [
            [
                {net: rng.randint(0, 1) for net in circuit.inputs}
                for _ in range(length)
            ]
            for length in (5, 2, 0, 7, 1)
        ]
        batched = BatchedSequentialOracle(circuit)
        responses = batched.query_batch(sequences)

        assert responses == [
            [row.signals for row in simulate_sequence(circuit, seq).rows]
            for seq in sequences
        ]
        assert [len(r) for r in responses] == [5, 2, 0, 7, 1]
        assert batched.queries == len(sequences)
        assert batched.cycles == sum(len(s) for s in sequences)


class TestMultiWordTiling:
    """Batches wider than one 64-bit machine word run as one packed pass."""

    def test_combinational_batch_wider_than_one_word(self):
        circuit = s27_circuit().combinational_view()
        rng = random.Random(11)
        vectors = [
            {net: rng.randint(0, 1) for net in circuit.inputs} for _ in range(300)
        ]
        scalar = CombinationalSimulator(circuit)
        expected = [scalar.outputs(v) for v in vectors]

        assert PackedSimulator(circuit).outputs_batch(vectors) == expected

    def test_sequential_batch_wider_than_one_word(self):
        circuit = s27_circuit()
        rng = random.Random(12)
        sequences = [
            [
                {net: rng.randint(0, 1) for net in circuit.inputs}
                for _ in range(rng.randint(1, 6))
            ]
            for _ in range(150)
        ]
        batched = BatchedSequentialOracle(circuit)
        responses = batched.query_batch(sequences)
        assert responses == [
            [row.signals for row in simulate_sequence(circuit, seq).rows]
            for seq in sequences
        ]

    def test_word_level_pass_matches_scalar(self):
        circuit = s27_circuit().combinational_view()
        rng = random.Random(13)
        width = 200
        # Bits above the width must be ignored, not leak into the pass.
        words = {net: rng.getrandbits(width + 8) for net in circuit.inputs}
        out = PackedSimulator(circuit).output_words(words, width=width)
        scalar = CombinationalSimulator(circuit)
        for lane in range(width):
            expected = scalar.outputs({net: (w >> lane) & 1 for net, w in words.items()})
            assert {net: (word >> lane) & 1 for net, word in out.items()} == expected
        assert all(word >> width == 0 for word in out.values())

    def test_invalid_tile_width_rejected(self):
        """Every batch is one untiled pass: no tiling or prebuilt-program knob."""
        circuit = s27_circuit().combinational_view()
        for tile_width in (None, 0, 128):
            with pytest.raises(TypeError):
                PackedSimulator(circuit, tile_width=tile_width)
        with pytest.raises(TypeError):
            PackedSimulator(circuit, compiled=compile_circuit(circuit))


class TestIncrementalUnrollExtension:
    def _fresh_and_extended(self, circuit, small, large):
        enc_ext = TseitinEncoder()
        ext = encode_unrolled(enc_ext, circuit, small, prefix="A#",
                              shared_input_prefix="X", key_prefix="K@")
        extend_unrolled(enc_ext, circuit, ext, large)
        enc_fresh = TseitinEncoder()
        fresh = encode_unrolled(enc_fresh, circuit, large, prefix="A#",
                                shared_input_prefix="X", key_prefix="K@")
        return enc_ext, ext, enc_fresh, fresh

    def test_extension_reproduces_fresh_name_maps(self):
        circuit = lock_rll(s27_circuit(), 2, seed=2).circuit
        _, ext, _, fresh = self._fresh_and_extended(circuit, 2, 5)
        assert ext.num_frames == fresh.num_frames == 5
        assert ext.frame_inputs == fresh.frame_inputs
        assert ext.frame_outputs == fresh.frame_outputs
        assert ext.frame_states == fresh.frame_states
        assert ext.next_state_names == fresh.next_state_names

    def test_extension_cannot_shrink(self):
        circuit = s27_circuit()
        encoder = TseitinEncoder()
        unrolled = encode_unrolled(encoder, circuit, 3, prefix="A#")
        with pytest.raises(ValueError):
            extend_unrolled(encoder, circuit, unrolled, 2)

    def _miter_verdicts(self, circuit, encoder, build):
        """SAT verdicts of the two-key miter: free keys, then tied keys."""
        copy_a = build("A#", "KA@")
        copy_b = build("B#", "KB@")
        nets_a, nets_b = [], []
        for frame in range(copy_a.num_frames):
            for out in circuit.outputs:
                nets_a.append(copy_a.frame_outputs[frame][out])
                nets_b.append(copy_b.frame_outputs[frame][out])
        diff = encoder.encode_inequality(nets_a, nets_b)
        solver = Solver()
        solver.add_clauses(encoder.cnf.clauses)
        free = solver.solve(assumptions=[encoder.literal(diff, True)])

        for net in circuit.key_inputs:
            encoder.add_equality(f"KA@{net}", f"KB@{net}")
        solver_tied = Solver()
        solver_tied.add_clauses(encoder.cnf.clauses)
        tied = solver_tied.solve(assumptions=[encoder.literal(diff, True)])
        return free, tied

    def test_extension_preserves_cnf_satisfiability_verdicts(self):
        circuit = lock_rll(s27_circuit(), 2, seed=2).circuit
        depth_small, depth_large = 2, 4

        enc_ext = TseitinEncoder()

        def build_extended(prefix, key_prefix):
            copy = encode_unrolled(enc_ext, circuit, depth_small, prefix=prefix,
                                   shared_input_prefix="X", key_prefix=key_prefix)
            return extend_unrolled(enc_ext, circuit, copy, depth_large)

        enc_fresh = TseitinEncoder()

        def build_fresh(prefix, key_prefix):
            return encode_unrolled(enc_fresh, circuit, depth_large, prefix=prefix,
                                   shared_input_prefix="X", key_prefix=key_prefix)

        ext_free, ext_tied = self._miter_verdicts(circuit, enc_ext, build_extended)
        fresh_free, fresh_tied = self._miter_verdicts(circuit, enc_fresh, build_fresh)
        # Two independent keys can disagree; one shared key cannot disagree
        # with itself — and the incrementally extended CNF must say the same.
        assert ext_free is fresh_free is True
        assert ext_tied is fresh_tied is False


def scalar_key_check(locked, key):
    """Re-check a static key with the scalar sequential simulator.

    Seed 1 draws other sequences than the attacks' own verification (seed 0).
    """
    key_nets = list(locked.circuit.key_inputs)
    return scalar_sequential_equivalence_check(
        locked.original, locked.circuit,
        key_schedule=[pack_key_bits(key, key_nets)], key_inputs=key_nets,
        num_sequences=8, sequence_length=48, seed=1,
    ).equivalent


class TestEngineParity:
    def test_unknown_engine_rejected(self):
        """The attacks have one loop: no engine knob is accepted."""
        for engine in ("gpu", "packed", "scalar"):
            with pytest.raises(TypeError):
                int_attack(_collapsed_fsm(), engine=engine)

    def test_collapsed_schedule_broken_by_both_engines(self):
        """One DIS settles the collapsed schedule; the scalar check agrees."""
        locked = _collapsed_fsm()
        for attack in (bmc_attack, int_attack, kc2_attack):
            result = attack(locked, max_depth=8, time_limit=30.0)
            assert result.outcome is AttackOutcome.CORRECT
            assert result.iterations == result.details["oracle_queries"] == 1
            assert result.details["depth"] == 2
            assert scalar_key_check(locked, result.key)

    def test_cutelock_resists_both_engines(self):
        """No static key survives; the scalar check refutes the last candidate."""
        locked = _locked_fsm()
        result = int_attack(locked, max_depth=8, time_limit=30.0)
        assert result.outcome is AttackOutcome.WRONG_KEY
        assert not result.broke_defense
        assert not scalar_key_check(locked, result.key)

    def test_crunching_respects_tiny_deadline(self):
        locked = _locked_fsm()
        start = time.monotonic()
        result = kc2_attack(locked, max_depth=8, time_limit=0.2)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        assert result.outcome in (AttackOutcome.TIMEOUT, AttackOutcome.CORRECT,
                                  AttackOutcome.WRONG_KEY, AttackOutcome.CNS)
