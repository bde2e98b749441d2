"""Unit tests for the netlist file formats (bench, blif, verilog) and stats."""

import pytest

from repro.benchmarks_data.iscas89 import s27_circuit
from repro.netlist.bench import BenchParseError, parse_bench, write_bench
from repro.netlist.blif import parse_blif, write_blif
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.netlist.stats import circuit_stats, logic_depth
from repro.netlist.validate import has_errors, validate_circuit
from repro.netlist.verilog import write_verilog
from repro.sim.equivalence import random_equivalence_check


class TestBench:
    def test_parse_s27(self):
        circuit = s27_circuit()
        assert len(circuit.inputs) == 4
        assert circuit.outputs == ["G17"]
        assert len(circuit.dffs) == 3
        assert len(circuit.gates) == 10

    def test_roundtrip_preserves_behaviour(self):
        circuit = s27_circuit()
        text = write_bench(circuit)
        reparsed = parse_bench(text, name="s27")
        verdict = random_equivalence_check(circuit, reparsed, num_vectors=64)
        assert verdict.equivalent

    def test_key_inputs_recognised(self):
        circuit = parse_bench("INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XOR(a, keyinput0)\n")
        assert circuit.key_inputs == ["keyinput0"]

    def test_comments_and_aliases(self):
        text = "# comment\nINPUT(a)\nOUTPUT(y)\ny = BUFF(a)  # alias\n"
        circuit = parse_bench(text)
        assert circuit.gates["y"].gtype == GateType.BUF

    def test_malformed_line_raises(self):
        with pytest.raises(BenchParseError):
            parse_bench("INPUT(a)\ny == AND(a)\n")

    def test_unknown_gate_raises(self):
        with pytest.raises(BenchParseError):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n")

    def test_writer_orders_topologically(self):
        circuit = s27_circuit()
        text = write_bench(circuit)
        lines = [l for l in text.splitlines() if "=" in l and "DFF" not in l]
        seen = set(circuit.inputs) | set(circuit.dffs)
        for line in lines:
            out, rhs = line.split("=")
            args = rhs[rhs.index("(") + 1: rhs.index(")")]
            for arg in (a.strip() for a in args.split(",") if a.strip()):
                assert arg in seen
            seen.add(out.strip())


class TestBlif:
    def test_roundtrip_behaviour(self):
        circuit = s27_circuit()
        text = write_blif(circuit)
        reparsed = parse_blif(text, name="s27_blif")
        verdict = random_equivalence_check(circuit, reparsed, num_vectors=64)
        assert verdict.equivalent

    def test_latches_roundtrip(self):
        circuit = s27_circuit()
        reparsed = parse_blif(write_blif(circuit))
        assert set(reparsed.dffs) == set(circuit.dffs)

    def test_constants(self):
        circuit = Circuit("const")
        circuit.add_input("a")
        circuit.add_gate("one", GateType.CONST1, [])
        circuit.add_gate("y", GateType.AND, ["a", "one"])
        circuit.add_output("y")
        reparsed = parse_blif(write_blif(circuit))
        verdict = random_equivalence_check(circuit, reparsed, num_vectors=16)
        assert verdict.equivalent


class TestVerilog:
    def test_module_structure(self):
        circuit = s27_circuit()
        text = write_verilog(circuit)
        assert "module s27" in text
        assert "endmodule" in text
        assert "always @(posedge clk" in text
        assert text.count("assign") == len(circuit.gates)

    def test_combinational_module_has_no_clock(self):
        circuit = Circuit("comb")
        circuit.add_input("a")
        circuit.add_gate("y", GateType.NOT, ["a"])
        circuit.add_output("y")
        text = write_verilog(circuit)
        assert "clk" not in text


class TestStatsAndValidation:
    def test_stats_counts(self):
        stats = circuit_stats(s27_circuit())
        assert stats.num_inputs == 4
        assert stats.num_dffs == 3
        assert stats.num_cells == 13
        assert stats.num_ios == 5
        assert stats.logic_depth >= 2
        assert sum(stats.gate_histogram.values()) == stats.num_gates

    def test_logic_depth_simple_chain(self):
        circuit = Circuit("chain")
        circuit.add_input("a")
        circuit.add_gate("b", GateType.NOT, ["a"])
        circuit.add_gate("c", GateType.NOT, ["b"])
        circuit.add_output("c")
        assert logic_depth(circuit) == 2

    def test_validate_clean_circuit(self):
        issues = validate_circuit(s27_circuit())
        assert not has_errors(issues)

    def test_validate_detects_undriven_net(self):
        circuit = Circuit("broken")
        circuit.add_input("a")
        circuit.add_gate("y", GateType.AND, ["a", "ghost"])
        circuit.add_output("y")
        issues = validate_circuit(circuit)
        assert has_errors(issues)

    def test_validate_detects_undriven_output(self):
        circuit = Circuit("broken")
        circuit.add_input("a")
        circuit.add_output("nowhere")
        assert has_errors(validate_circuit(circuit))

    def test_validate_strict_raises(self):
        from repro.netlist.circuit import CircuitError

        circuit = Circuit("broken")
        circuit.add_input("a")
        circuit.add_output("nowhere")
        with pytest.raises(CircuitError):
            validate_circuit(circuit, strict=True)
