"""Unit tests for the FSM layer: STG model, encodings, Quine-McCluskey and
FSM synthesis."""

import random

import pytest

from repro.fsm.encoding import binary_encoding, gray_encoding, one_hot_encoding
from repro.fsm.minimize import Implicant, evaluate_cover, quine_mccluskey
from repro.fsm.random_fsm import counter_fsm, random_fsm, sequence_detector_fsm
from repro.fsm.stg import FSM, FSMError
from repro.fsm.synthesis import TruthTable, synthesize_fsm, synthesize_truth_table
from repro.netlist.circuit import Circuit
from repro.netlist.validate import has_errors, validate_circuit
from repro.sim.logicsim import CombinationalSimulator
from repro.sim.seqsim import SequentialSimulator


class TestFsmModel:
    def test_transition_bookkeeping(self):
        fsm = FSM("t", num_inputs=1, num_outputs=1, reset_state="A")
        fsm.add_transition("A", 0, "A", 0)
        fsm.add_transition("A", 1, "B", 1)
        assert fsm.num_states == 2
        assert fsm.next("A", 1) == ("B", 1)
        assert fsm.has_transition("A", 0)
        assert not fsm.has_transition("B", 0)

    def test_missing_transition_defaults_to_self_loop(self):
        fsm = FSM("t", num_inputs=1, num_outputs=1, reset_state="A")
        assert fsm.next("A", 1) == ("A", 0)

    def test_out_of_range_values_rejected(self):
        fsm = FSM("t", num_inputs=1, num_outputs=1, reset_state="A")
        with pytest.raises(FSMError):
            fsm.add_transition("A", 2, "A", 0)
        with pytest.raises(FSMError):
            fsm.add_transition("A", 0, "A", 5)

    def test_unknown_state_rejected(self):
        fsm = FSM("t", num_inputs=1, num_outputs=1, reset_state="A")
        with pytest.raises(FSMError):
            fsm.next("Z", 0)

    def test_completed_and_reachability(self):
        fsm = FSM("t", num_inputs=1, num_outputs=1, reset_state="A")
        fsm.add_transition("A", 1, "B", 0)
        assert not fsm.is_complete()
        completed = fsm.completed()
        assert completed.is_complete()
        assert completed.reachable_states() == {"A", "B"}

    def test_simulate_and_trace(self):
        det = sequence_detector_fsm("101")
        outputs = det.simulate([1, 0, 1, 0, 1])
        assert outputs == [0, 0, 1, 0, 1]
        trace = det.trace([1, 0, 1])
        assert trace[-1][3] == 1

    def test_copy_and_rename(self):
        det = sequence_detector_fsm("11")
        renamed = det.renamed_states({"S0": "IDLE"})
        assert renamed.reset_state == "IDLE"
        assert renamed.num_states == det.num_states

    def test_state_table_rows(self):
        det = sequence_detector_fsm("10")
        rows = det.to_state_table()
        assert len(rows) == det.num_states * 2


class TestEncodings:
    def test_binary_encoding_reset_is_zero(self):
        fsm = random_fsm(5, 1, 1, seed=1)
        encoding = binary_encoding(fsm)
        assert encoding.code_of(fsm.reset_state) == 0
        assert encoding.width == 3
        assert len(set(encoding.codes.values())) == 5

    def test_one_hot_encoding(self):
        fsm = random_fsm(4, 1, 1, seed=1)
        encoding = one_hot_encoding(fsm)
        assert encoding.width == 4
        assert all(bin(code).count("1") == 1 for code in encoding.codes.values())

    def test_gray_encoding_unique(self):
        fsm = random_fsm(6, 1, 1, seed=1)
        encoding = gray_encoding(fsm)
        assert len(set(encoding.codes.values())) == 6

    def test_unused_codes(self):
        fsm = random_fsm(5, 1, 1, seed=1)
        encoding = binary_encoding(fsm)
        assert len(encoding.unused_codes()) == 3


class TestQuineMccluskey:
    def test_simple_function(self):
        # f(a,b) = a OR b : minterms 1,2,3 over 2 vars
        cover = quine_mccluskey([1, 2, 3], 2)
        for assignment in range(4):
            assert evaluate_cover(cover, assignment) == int(assignment != 0)

    def test_uses_dont_cares(self):
        # minterms {1}, don't care {3} over 2 vars -> single literal cube b0
        cover = quine_mccluskey([1], 2, dont_cares=[3])
        assert len(cover) == 1
        assert cover[0].size() >= 2

    def test_empty_onset(self):
        assert quine_mccluskey([], 3) == []

    def test_random_functions_covered_exactly(self):
        rng = random.Random(7)
        for _ in range(20):
            num_vars = 4
            onset = {m for m in range(16) if rng.random() < 0.4}
            cover = quine_mccluskey(sorted(onset), num_vars)
            for assignment in range(16):
                assert evaluate_cover(cover, assignment) == int(assignment in onset)

    def test_implicant_pattern(self):
        imp = Implicant(value=0b01, mask=0b10, num_vars=2)
        assert imp.to_pattern() == "1-"
        assert imp.covers(0b01) and imp.covers(0b11)
        assert not imp.covers(0b00)


class TestTruthTableSynthesis:
    @pytest.mark.parametrize("style", ["sop", "mux"])
    def test_matches_function(self, style):
        rng = random.Random(11)
        onset = {m for m in range(16) if rng.random() < 0.5}
        table = TruthTable.from_function(4, lambda row: int(row in onset))
        circuit = Circuit("tt")
        nets = [f"v{i}" for i in range(4)]
        for net in nets:
            circuit.add_input(net)
        out = synthesize_truth_table(circuit, table, nets, style=style)
        circuit.add_output(out)
        for assignment in range(16):
            values = {nets[i]: (assignment >> i) & 1 for i in range(4)}
            assert CombinationalSimulator(circuit).evaluate(values)[out] == int(assignment in onset)

    def test_constant_function(self):
        table = TruthTable.from_function(3, lambda row: 1)
        circuit = Circuit("const")
        nets = [f"v{i}" for i in range(3)]
        for net in nets:
            circuit.add_input(net)
        out = synthesize_truth_table(circuit, table, nets)
        assert circuit.gates[out].gtype.value in ("CONST1",)

    def test_cofactors(self):
        table = TruthTable.from_function(2, lambda row: (row >> 1) & 1)
        f0, f1 = table.cofactors()
        assert f0.is_constant() == 0
        assert f1.is_constant() == 1


class TestFsmSynthesis:
    @pytest.mark.parametrize("style", ["sop", "mux"])
    def test_detector_netlist_matches_stg(self, style):
        det = sequence_detector_fsm("1001")
        circuit = synthesize_fsm(det, style=style)
        assert not has_errors(validate_circuit(circuit))
        sim = SequentialSimulator(circuit)
        sequence = [1, 0, 0, 1, 1, 0, 0, 1, 0, 1]
        expected = det.simulate(sequence)
        produced = [sim.outputs({"in_0": bit})["out_0"] for bit in sequence]
        assert produced == expected

    def test_random_fsm_netlist_matches_stg(self):
        fsm = random_fsm(10, 2, 3, seed=9)
        circuit = synthesize_fsm(fsm)
        sim = SequentialSimulator(circuit)
        rng = random.Random(1)
        state = fsm.reset_state
        for _ in range(100):
            value = rng.randrange(4)
            outputs = sim.outputs({"in_0": value & 1, "in_1": (value >> 1) & 1})
            state, expected = fsm.next(state, value)
            assert Waveform_pack(outputs, fsm.num_outputs) == expected

    def test_counter_fsm_terminal_count(self):
        fsm = counter_fsm(4)
        outputs = fsm.simulate([1, 1, 1, 1, 1])
        assert outputs == [0, 0, 0, 1, 0]


def Waveform_pack(outputs, width):
    """Pack out_<i> bits (LSB first) into an integer."""
    return sum(outputs[f"out_{i}"] << i for i in range(width))
