"""Unit tests for the overhead model (library, mapping, overhead)."""

import pytest

from repro.benchmarks_data.iscas89 import s27_circuit
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.cutelock_str import CuteLockStr
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.synthesis.library import Cell, generic_45nm_library
from repro.synthesis.mapping import MappedCell, MappedCircuit, technology_map
from repro.synthesis.overhead import analyze_circuit, compare_overhead


class TestLibrary:
    def test_contains_core_cells(self):
        library = generic_45nm_library()
        for name in ("INV_X1", "NAND2_X1", "XOR2_X1", "MUX2_X1", "DFF_X1"):
            assert name in library

    def test_best_cell_selection(self):
        library = generic_45nm_library()
        assert library.best_cell("AND", 3).name == "AND3_X1"
        assert library.best_cell("AND", 2).name == "AND2_X1"
        with pytest.raises(KeyError):
            library.best_cell("AND", 9)

    def test_unknown_cell_raises(self):
        with pytest.raises(KeyError):
            generic_45nm_library().cell("FROB_X1")


class TestMapping:
    def test_one_cell_per_simple_gate(self):
        circuit = s27_circuit()
        mapped = technology_map(circuit)
        # 10 gates (all <= 2 inputs) + 3 DFFs
        assert mapped.cell_count == 13
        assert mapped.total_area > 0
        assert mapped.histogram()["DFF_X1"] == 3

    def test_wide_gate_decomposed(self):
        circuit = Circuit("wide")
        inputs = [f"i{k}" for k in range(9)]
        for net in inputs:
            circuit.add_input(net)
        circuit.add_gate("y", GateType.AND, inputs)
        circuit.add_output("y")
        mapped = technology_map(circuit)
        assert mapped.cell_count > 1
        assert all(cell.cell.num_inputs <= 4 for cell in mapped.cells)

    def test_multi_input_xor_decomposed(self):
        circuit = Circuit("xor")
        for net in ("a", "b", "c", "d"):
            circuit.add_input(net)
        circuit.add_gate("y", GateType.XOR, ["a", "b", "c", "d"])
        circuit.add_output("y")
        mapped = technology_map(circuit)
        assert len(mapped.cells_for("y")) == 3  # n-1 two-input XOR stages

    def test_totals_are_correctly_rounded(self):
        """Ten 0.1 cells total 1.0 on every Python version; the built-in
        sum() reads 0.9999999999999999 before Python 3.12."""
        cell = Cell("TINY_X1", area=0.1, leakage_nw=0.1, switch_energy_fj=0.0,
                    num_inputs=1)
        mapped = MappedCircuit(
            "tiny", "lib", [MappedCell(f"n{k}", cell) for k in range(10)]
        )
        assert mapped.total_area == 1.0
        assert mapped.total_leakage_nw == 1.0


class TestOverhead:
    def test_analyze_produces_positive_costs(self):
        cost = analyze_circuit(s27_circuit(), activity_vectors=16)
        assert cost.power_uw > 0
        assert cost.area_um2 > 0
        assert cost.cell_count == 13
        assert cost.io_count == 5
        assert cost.dynamic_uw >= 0

    def test_locked_circuit_costs_more(self):
        fsm = random_fsm(8, 2, 2, seed=5)
        circuit = synthesize_fsm(fsm)
        locked = CuteLockStr(num_keys=4, key_width=2, num_locked_ffs=1, seed=1).lock(circuit)
        report = compare_overhead(locked, activity_vectors=16)
        assert report.locked.cell_count > report.original.cell_count
        assert report.area_overhead_pct > 0
        assert report.io_overhead_pct > 0
        assert report.locked.num_dffs == report.original.num_dffs + 2  # counter FFs

    def test_more_keys_cost_more(self):
        fsm = random_fsm(8, 2, 2, seed=5)
        circuit = synthesize_fsm(fsm)
        small = CuteLockStr(num_keys=2, key_width=2, num_locked_ffs=1, seed=1).lock(circuit)
        big = CuteLockStr(num_keys=16, key_width=5, num_locked_ffs=1, seed=1).lock(circuit)
        small_report = compare_overhead(small, activity_vectors=8)
        big_report = compare_overhead(big, activity_vectors=8)
        assert big_report.area_overhead_pct > small_report.area_overhead_pct

    @pytest.mark.parametrize("vectors", [0, 1])
    def test_fewer_than_two_activity_vectors_rejected(self, vectors):
        """Toggles are counted between consecutive vectors: one vector has none."""
        with pytest.raises(ValueError, match="activity_vectors"):
            analyze_circuit(s27_circuit(), activity_vectors=vectors)

    def test_as_dict_keys(self):
        cost = analyze_circuit(s27_circuit(), activity_vectors=8)
        assert set(cost.as_dict()) == {"power_uw", "area_um2", "cell_count", "io_count"}
