"""Unit tests for the ``.bench`` reader/writer and netlist validation."""

import pytest

from repro.benchmarks_data.iscas89 import s27_circuit
from repro.fsm.encoding import StateEncoding
from repro.fsm.random_fsm import sequence_detector_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.cutelock_str import CuteLockStr
from repro.netlist.bench import (
    BenchParseError,
    load_bench,
    parse_bench,
    save_bench,
    write_bench,
)
from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import GATE_ARITY, GateType
from repro.netlist.validate import has_errors, validate_circuit
from repro.sim.equivalence import random_equivalence_check, sequential_equivalence_check


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

    @pytest.mark.parametrize("gtype", list(GateType), ids=lambda g: g.value)
    def test_every_gate_type_roundtrips(self, gtype):
        # Unbounded gates get three inputs, so the fan-in order is checked too.
        lo, hi = GATE_ARITY[gtype]
        circuit = Circuit("one_gate")
        fanin = [circuit.add_input(f"i{n}") for n in range(lo if hi is not None else 3)]
        circuit.add_gate("y", gtype, fanin)
        circuit.add_output("y")
        assert parse_bench(write_bench(circuit)) == circuit

    @pytest.mark.parametrize("op,args,gtype", [
        ("INV", "a", GateType.NOT),
        ("GND", "", GateType.CONST0),
        ("VDD", "", GateType.CONST1),
        ("nand", "a, b", GateType.NAND),
        ("Xnor", "a, b", GateType.XNOR),
    ], ids=["INV", "GND", "VDD", "lower-case", "mixed-case"])
    def test_reader_aliases_and_case(self, op, args, gtype):
        circuit = parse_bench(f"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = {op}({args})\n")
        assert circuit.gates["y"].gtype is gtype

    def test_io_declarations_ignore_case(self):
        circuit = parse_bench("input(a)\nOutput(y)\ny = NOT(a)\n")
        assert circuit.inputs == ["a"] and circuit.outputs == ["y"]

    def test_outputs_may_precede_their_drivers(self):
        circuit = parse_bench("OUTPUT(y)\nOUTPUT(z)\nINPUT(a)\ny = BUF(z)\nz = NOT(a)\n")
        assert circuit.outputs == ["y", "z"]
        assert circuit.topological_order() == ["z", "y"]

    def test_writer_header_and_summary_are_comments(self):
        circuit = s27_circuit()
        text = write_bench(circuit, header="locked with rll\nseed 3")
        assert text.splitlines()[:4] == [
            "# s27", "# locked with rll", "# seed 3",
            "# 4 inputs (0 key), 1 outputs, 3 DFFs, 10 gates",
        ]
        assert parse_bench(text) == circuit

    def test_save_and_load_name_the_circuit_after_the_file(self, tmp_path):
        circuit = s27_circuit()
        path = save_bench(circuit, tmp_path / "copy.bench")
        assert path == tmp_path / "copy.bench"
        loaded = load_bench(path)
        assert loaded.name == "copy"
        assert loaded == circuit

    def test_locked_netlist_roundtrip_keeps_keys_and_behaviour(self):
        # `repro lock` writes the locked netlist and `repro attack` reads it.
        original = s27_circuit()
        locked = CuteLockStr(num_keys=2, key_width=2, num_locked_ffs=2, seed=1).lock(original)
        reparsed = parse_bench(write_bench(locked.circuit))
        assert reparsed.key_inputs == locked.key_inputs
        assert reparsed == locked.circuit
        assert sequential_equivalence_check(
            original, reparsed, key_schedule=locked.schedule.values,
            key_inputs=locked.key_inputs, num_sequences=4, sequence_length=8,
        ).equivalent

    def test_malformed_line_raises(self):
        with pytest.raises(BenchParseError):
            parse_bench("INPUT(a)\ny == AND(a)\n")

    def test_unknown_gate_raises(self):
        with pytest.raises(BenchParseError):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n")

    @pytest.mark.parametrize("text,message", [
        ("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n",
         "line 4: gate 'y': NOT expects 1..1 inputs, got 2"),
        ("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n", "line 4: net 'y' already driven"),
        ("INPUT(a)\nINPUT(a)\n", "line 2: duplicate primary input 'a'"),
        ("INPUT(a)\nOUTPUT(a)\n\nOUTPUT(a)\n", "line 4: duplicate primary output 'a'"),
        ("INPUT(a)\ny == AND(a)\n", "line 2: cannot parse 'y == AND(a)'"),
        ("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", "line 3: unknown gate type 'FROB'"),
        ("INPUT(a)\nINPUT(b)\nq = DFF(a, b)\n", "line 3: DFF takes one input, got ['a', 'b']"),
        ("INPUT(a)\nOUTPUT(y)\ny = AND(a)\n", "line 3: gate 'y': AND expects 2+ inputs, got 1"),
        ("INPUT(s)\nINPUT(a)\nOUTPUT(y)\ny = MUX(s, a)\n",
         "line 4: gate 'y': MUX expects 3..3 inputs, got 2"),
        ("INPUT(a)\nOUTPUT(y)\ny = CONST1(a)\n",
         "line 3: gate 'y': CONST1 expects 0..0 inputs, got 1"),
        ("INPUT(a)\ny = NOT(a)\nINPUT(y)\n",
         "line 3: net 'y' is already driven, cannot be an input"),
        ("INPUT(a)\na = DFF(a)\n", "line 2: net 'a' already driven"),
        # Comment and blank lines count towards the line number.
        ("# s\n\nINPUT(a)  # first\nINPUT(a)\n", "line 4: duplicate primary input 'a'"),
    ], ids=["wrong-arity", "redefined-net", "duplicate-input", "duplicate-output",
            "bad-syntax", "unknown-gate", "dff-arity", "and-arity", "mux-arity",
            "constant-arity", "input-already-driven", "dff-drives-input",
            "after-comments"])
    def test_every_line_error_names_its_line(self, text, message):
        with pytest.raises(BenchParseError) as raised:
            parse_bench(text)
        assert str(raised.value) == message

    def test_writer_refuses_flip_flops_that_reset_to_1(self):
        # .bench has no reset syntax and the reader loads every DFF at 0.
        circuit = Circuit("reset_high")
        circuit.add_input("a")
        circuit.add_dff("q0", "a")
        circuit.add_dff("q1", "a", init=1)
        circuit.add_output("q1")
        with pytest.raises(CircuitError, match="reset to 1.*: q1$"):
            write_bench(circuit)

    def test_writer_refuses_one_hot_fsm(self):
        det = sequence_detector_fsm("1001")
        one_hot = StateEncoding(
            width=det.num_states, codes={s: 1 << i for i, s in enumerate(det.states)}
        )
        # Only the reset state's bit resets to 1.
        with pytest.raises(CircuitError, match=": state_0$"):
            write_bench(synthesize_fsm(det, encoding=one_hot))

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


class TestValidation:
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
        circuit = Circuit("broken")
        circuit.add_input("a")
        circuit.add_output("nowhere")
        with pytest.raises(CircuitError):
            validate_circuit(circuit, strict=True)
