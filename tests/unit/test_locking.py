"""Unit tests for the locking layer: key schedules, counter insertion, the
MUX tree, Cute-Lock-Str and Cute-Lock-Beh."""

import random

import pytest

from repro.benchmarks_data.iscas89 import s27_circuit
from repro.fsm.random_fsm import random_fsm, sequence_detector_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.base import KeySchedule, LockingError, pack_key_bits, unpack_key_value
from repro.locking.counter import insert_counter
from repro.locking.cutelock_beh import CuteLockBeh
from repro.locking.cutelock_str import CuteLockStr
from repro.locking.muxtree import build_mux_tree
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.netlist.validate import has_errors, validate_circuit
from repro.sim.equivalence import sequential_equivalence_check
from repro.sim.seqsim import SequentialSimulator


class TestKeySchedule:
    def test_validation(self):
        with pytest.raises(LockingError):
            KeySchedule(width=0, values=(0,))
        with pytest.raises(LockingError):
            KeySchedule(width=2, values=())
        with pytest.raises(LockingError):
            KeySchedule(width=2, values=(4,))

    def test_value_at_wraps(self):
        schedule = KeySchedule(width=2, values=(1, 3, 2, 0))
        assert schedule.value_at(0) == 1
        assert schedule.value_at(5) == 3
        assert schedule.num_keys == 4
        assert schedule.total_bits == 8

    def test_bits_at_msb_first(self):
        schedule = KeySchedule(width=3, values=(0b101,))
        bits = schedule.bits_at(0, ["k0", "k1", "k2"])
        assert bits == {"k0": 1, "k1": 0, "k2": 1}

    def test_collapsed_is_static(self):
        schedule = KeySchedule(width=2, values=(1, 3, 2, 0))
        assert not schedule.is_static()
        assert schedule.collapsed().is_static()

    def test_random_distinct(self):
        schedule = KeySchedule.random(4, 3, seed=5)
        assert schedule.num_keys == 4
        assert not schedule.is_static()

    def test_pack_unpack_roundtrip(self):
        key_inputs = ["k0", "k1", "k2", "k3"]
        for value in range(16):
            bits = unpack_key_value(value, key_inputs)
            assert pack_key_bits(bits, key_inputs) == value


class TestCounter:
    @pytest.mark.parametrize("period", [2, 3, 4, 5, 8])
    def test_wrapping_counter_sequence(self, period):
        circuit = Circuit("cnt")
        circuit.add_input("dummy")
        circuit.add_gate("y", GateType.BUF, ["dummy"])
        circuit.add_output("y")
        info = insert_counter(circuit, period)
        assert not has_errors(validate_circuit(circuit))
        sim = SequentialSimulator(circuit)
        values = []
        for _ in range(2 * period + 1):
            snapshot = sim.step({"dummy": 0})
            value = sum(snapshot[q] << bit for bit, q in enumerate(info.state_nets))
            values.append(value)
        assert values[:period] == list(range(period))
        assert values[period] == 0  # wrapped

    def test_saturating_counter_holds(self):
        circuit = Circuit("cnt")
        circuit.add_input("dummy")
        circuit.add_gate("y", GateType.BUF, ["dummy"])
        circuit.add_output("y")
        info = insert_counter(circuit, 4, saturate=True)
        sim = SequentialSimulator(circuit)
        last = None
        for _ in range(10):
            snapshot = sim.step({"dummy": 0})
            last = sum(snapshot[q] << bit for bit, q in enumerate(info.state_nets))
        assert last == 3

    def test_decode_nets_one_hot(self):
        circuit = Circuit("cnt")
        circuit.add_input("dummy")
        circuit.add_gate("y", GateType.BUF, ["dummy"])
        circuit.add_output("y")
        info = insert_counter(circuit, 4)
        sim = SequentialSimulator(circuit)
        for cycle in range(8):
            snapshot = sim.step({"dummy": 0})
            decodes = [snapshot[net] for net in info.decode_nets]
            assert sum(decodes) == 1
            assert decodes[cycle % 4] == 1

    def test_invalid_period(self):
        circuit = Circuit("cnt")
        with pytest.raises(LockingError):
            insert_counter(circuit, 0)


class TestMuxTree:
    def test_selects_correct_when_key_matches(self):
        circuit = Circuit("mt")
        for net in ("correct", "wrong", "k0", "k1", "t0", "t1"):
            circuit.add_input(net)
        schedule = KeySchedule(width=2, values=(0b10, 0b01))
        info = build_mux_tree(
            circuit,
            correct_net="correct",
            wrongful_nets=["wrong"],
            key_inputs=["k0", "k1"],
            schedule=schedule,
            decode_nets=["t0", "t1"],
        )
        circuit.add_output(info.root_net)
        from repro.sim.logicsim import CombinationalSimulator

        # Counter time 0, correct key 0b10 -> passes the correct net through.
        values = CombinationalSimulator(circuit).evaluate({
            "correct": 1, "wrong": 0, "k0": 1, "k1": 0, "t0": 1, "t1": 0,
        })
        assert values[info.root_net] == 1
        # Wrong key at time 0 -> wrongful net.
        values = CombinationalSimulator(circuit).evaluate({
            "correct": 1, "wrong": 0, "k0": 0, "k1": 1, "t0": 1, "t1": 0,
        })
        assert values[info.root_net] == 0
        # Time 1 requires key 0b01.
        values = CombinationalSimulator(circuit).evaluate({
            "correct": 1, "wrong": 0, "k0": 0, "k1": 1, "t0": 0, "t1": 1,
        })
        assert values[info.root_net] == 1
        assert info.num_layers == 2  # log2(2) + 1

    def test_parameter_validation(self):
        circuit = Circuit("mt")
        for net in ("c", "w", "k0", "t0"):
            circuit.add_input(net)
        schedule = KeySchedule(width=1, values=(1, 0))
        with pytest.raises(LockingError):
            build_mux_tree(circuit, correct_net="c", wrongful_nets=["w"],
                           key_inputs=["k0"], schedule=schedule, decode_nets=["t0"])


class TestCuteLockStr:
    def make_locked(self, **kwargs):
        fsm = random_fsm(8, 2, 2, seed=5)
        circuit = synthesize_fsm(fsm, style="sop")
        defaults = dict(num_keys=4, key_width=2, num_locked_ffs=2, seed=3)
        defaults.update(kwargs)
        return circuit, CuteLockStr(**defaults).lock(circuit)

    def test_structure(self):
        circuit, locked = self.make_locked()
        assert not has_errors(validate_circuit(locked.circuit))
        assert len(locked.key_inputs) == 2
        assert locked.circuit.key_inputs == locked.key_inputs
        assert len(locked.counter_nets) == 2
        assert len(locked.locked_ffs) == 2
        # original untouched
        assert not circuit.key_inputs

    def test_correct_schedule_preserves_behaviour(self):
        circuit, locked = self.make_locked()
        verdict = sequential_equivalence_check(
            circuit, locked.circuit,
            key_schedule=locked.schedule.values, key_inputs=locked.key_inputs,
            num_sequences=6, sequence_length=24,
        )
        assert verdict.equivalent

    def test_wrong_schedule_corrupts_behaviour(self):
        circuit, locked = self.make_locked()
        wrong = tuple(v ^ 0b11 for v in locked.schedule.values)
        verdict = sequential_equivalence_check(
            circuit, locked.circuit,
            key_schedule=wrong, key_inputs=locked.key_inputs,
            num_sequences=6, sequence_length=24,
        )
        assert not verdict.equivalent

    def test_static_key_is_not_sufficient(self):
        circuit, locked = self.make_locked()
        static = (locked.schedule.values[0],) * locked.num_keys
        verdict = sequential_equivalence_check(
            circuit, locked.circuit,
            key_schedule=static, key_inputs=locked.key_inputs,
            num_sequences=6, sequence_length=24,
        )
        assert not verdict.equivalent

    def test_explicit_schedule_and_ffs(self):
        circuit = s27_circuit()
        schedule = KeySchedule(width=2, values=(1, 3, 2, 0))
        locked = CuteLockStr(num_keys=4, key_width=2).lock(
            circuit, schedule=schedule, locked_ffs=["G5"]
        )
        assert locked.locked_ffs == ["G5"]
        assert locked.schedule is schedule

    def test_requires_sequential_circuit(self):
        circuit = Circuit("comb")
        circuit.add_input("a")
        circuit.add_gate("y", GateType.NOT, ["a"])
        circuit.add_output("y")
        with pytest.raises(LockingError):
            CuteLockStr().lock(circuit)

    def test_unknown_locked_ff_rejected(self):
        circuit = s27_circuit()
        with pytest.raises(LockingError):
            CuteLockStr(num_keys=2, key_width=2).lock(circuit, locked_ffs=["nope"])

    def test_wrong_schedule_helper_differs(self):
        _, locked = self.make_locked()
        assert locked.wrong_schedule().values != locked.schedule.values

    def test_describe_mentions_scheme(self):
        _, locked = self.make_locked()
        assert "cute-lock-str" in locked.describe()


class TestCuteLockBeh:
    def test_behavioural_simulation(self):
        det = sequence_detector_fsm("1001")
        locked_fsm = CuteLockBeh(num_keys=4, key_width=4, seed=1).lock(det)
        rng = random.Random(2)
        sequence = [rng.randrange(2) for _ in range(40)]
        golden = det.simulate(sequence)
        assert locked_fsm.simulate(sequence) == golden
        wrong_keys = [v ^ 0xF for v in locked_fsm.correct_key_sequence(40)]
        assert locked_fsm.simulate(sequence, wrong_keys) != golden

    def test_synthesis_matches_original_under_schedule(self):
        det = sequence_detector_fsm("1001")
        locked_fsm = CuteLockBeh(num_keys=4, key_width=3, seed=2).lock(det)
        locked = locked_fsm.synthesize(style="sop")
        assert not has_errors(validate_circuit(locked.circuit))
        verdict = sequential_equivalence_check(
            locked.original, locked.circuit,
            key_schedule=locked.schedule.values, key_inputs=locked.key_inputs,
            num_sequences=6, sequence_length=24,
        )
        assert verdict.equivalent

    def test_synthesis_diverges_under_wrong_schedule(self):
        det = sequence_detector_fsm("1001")
        locked_fsm = CuteLockBeh(num_keys=4, key_width=3, seed=2).lock(det)
        locked = locked_fsm.synthesize(style="sop")
        wrong = tuple(v ^ 0b111 for v in locked.schedule.values)
        verdict = sequential_equivalence_check(
            locked.original, locked.circuit,
            key_schedule=wrong, key_inputs=locked.key_inputs,
            num_sequences=6, sequence_length=24,
        )
        assert not verdict.equivalent

    def test_explicit_wrongful_map_validated(self):
        det = sequence_detector_fsm("11")
        with pytest.raises(LockingError):
            CuteLockBeh(num_keys=2, key_width=2).lock(det, wrongful={("S0", 0): "GHOST"})

    def test_key_sequences(self):
        det = sequence_detector_fsm("11")
        locked_fsm = CuteLockBeh(num_keys=2, key_width=2, seed=3).lock(det)
        correct = locked_fsm.correct_key_sequence(6)
        assert correct == [locked_fsm.schedule.value_at(t) for t in range(6)]
        assert locked_fsm.wrong_key_sequence(6) != correct
