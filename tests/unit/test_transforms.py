"""Unit tests for the netlist clean-up transforms."""


import pytest

from repro.benchmarks_data.generator import random_sequential_circuit
from repro.benchmarks_data.iscas89 import s27_circuit
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.cutelock_str import CuteLockStr
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.netlist.transforms import (
    cleanup,
    collapse_buffers,
    propagate_constants,
    sweep_dangling_logic,
)
from repro.netlist.validate import has_errors, validate_circuit
from repro.sim.equivalence import random_equivalence_check


class TestSweepDanglingLogic:
    def test_removes_unobservable_gate(self):
        circuit = s27_circuit()
        circuit.add_gate("orphan", GateType.AND, ["G0", "G1"])
        cleaned, removed = sweep_dangling_logic(circuit)
        assert removed == 1
        assert "orphan" not in cleaned.gates
        assert random_equivalence_check(s27_circuit(), cleaned, num_vectors=64).equivalent

    def test_keeps_everything_on_clean_circuit(self):
        cleaned, removed = sweep_dangling_logic(s27_circuit())
        assert removed == 0
        assert cleaned.num_gates == s27_circuit().num_gates


class TestCollapseBuffers:
    def test_collapses_internal_buffer_chain(self):
        circuit = Circuit("bufchain")
        circuit.add_input("a")
        circuit.add_gate("b1", GateType.BUF, ["a"])
        circuit.add_gate("b2", GateType.BUF, ["b1"])
        circuit.add_gate("y", GateType.NOT, ["b2"])
        circuit.add_output("y")
        cleaned, collapsed = collapse_buffers(circuit)
        assert collapsed == 2
        assert cleaned.gates["y"].inputs == ("a",)
        assert random_equivalence_check(circuit, cleaned, num_vectors=8).equivalent

    def test_keeps_output_buffer(self):
        circuit = Circuit("outbuf")
        circuit.add_input("a")
        circuit.add_gate("y", GateType.BUF, ["a"])
        circuit.add_output("y")
        cleaned, collapsed = collapse_buffers(circuit)
        assert collapsed == 0
        assert "y" in cleaned.gates

    def test_rewires_dff_inputs(self):
        circuit = Circuit("dffbuf")
        circuit.add_input("a")
        circuit.add_gate("buf", GateType.BUF, ["a"])
        circuit.add_dff("q", "buf")
        circuit.add_gate("y", GateType.BUF, ["q"])
        circuit.add_output("y")
        cleaned, _ = collapse_buffers(circuit)
        assert cleaned.dffs["q"].d == "a"


class TestPropagateConstants:
    def test_folds_and_with_zero(self):
        circuit = Circuit("fold")
        circuit.add_input("a")
        circuit.add_gate("zero", GateType.CONST0, [])
        circuit.add_gate("y", GateType.AND, ["a", "zero"])
        circuit.add_output("y")
        cleaned, folded = propagate_constants(circuit)
        assert folded >= 1
        assert cleaned.gates["y"].gtype == GateType.CONST0
        assert random_equivalence_check(circuit, cleaned, num_vectors=8).equivalent

    def test_folds_mux_with_constant_select(self):
        circuit = Circuit("foldmux")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("one", GateType.CONST1, [])
        circuit.add_gate("y", GateType.MUX, ["one", "a", "b"])
        circuit.add_output("y")
        cleaned, folded = propagate_constants(circuit)
        assert folded >= 1
        assert cleaned.gates["y"].gtype == GateType.BUF
        assert cleaned.gates["y"].inputs == ("b",)

    def test_xor_with_constant_becomes_inverter(self):
        circuit = Circuit("foldxor")
        circuit.add_input("a")
        circuit.add_gate("one", GateType.CONST1, [])
        circuit.add_gate("y", GateType.XOR, ["a", "one"])
        circuit.add_output("y")
        cleaned, _ = propagate_constants(circuit)
        assert cleaned.gates["y"].gtype == GateType.NOT
        assert random_equivalence_check(circuit, cleaned, num_vectors=8).equivalent

    def test_iterative_folding_through_levels(self):
        circuit = Circuit("levels")
        circuit.add_input("a")
        circuit.add_gate("zero", GateType.CONST0, [])
        circuit.add_gate("mid", GateType.OR, ["zero", "zero"])
        circuit.add_gate("y", GateType.AND, ["a", "mid"])
        circuit.add_output("y")
        cleaned, folded = propagate_constants(circuit)
        assert cleaned.gates["y"].gtype == GateType.CONST0
        assert folded >= 2


class TestCleanupPipeline:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cleanup_preserves_behaviour_on_random_circuits(self, seed):
        generated = random_sequential_circuit(
            f"clean{seed}", num_inputs=4, num_outputs=3, num_dffs=4, num_gates=40, seed=seed
        )
        cleaned, stats = cleanup(generated.circuit)
        assert not has_errors(validate_circuit(cleaned))
        assert random_equivalence_check(generated.circuit, cleaned, num_vectors=64).equivalent
        assert set(stats) == {"constants_folded", "buffers_collapsed", "dangling_removed"}

    def test_cleanup_preserves_locked_circuit_behaviour(self):
        fsm = random_fsm(6, 2, 2, seed=3)
        circuit = synthesize_fsm(fsm, style="sop")
        locked = CuteLockStr(num_keys=4, key_width=2, num_locked_ffs=1, seed=1).lock(circuit)
        cleaned, _ = cleanup(locked.circuit)
        verdict = random_equivalence_check(
            locked.circuit, cleaned,
            key_assignment=locked.correct_key_bits(0), num_vectors=64,
        )
        assert verdict.equivalent
        assert cleaned.num_gates <= locked.circuit.num_gates
