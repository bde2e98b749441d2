"""Unit tests for simulation (repro.sim): combinational, sequential, waveform,
and equivalence checking."""

import pytest

from repro.benchmarks_data.iscas89 import s27_circuit
from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import GateType
from repro.sim.equivalence import (
    random_equivalence_check,
    sat_equivalence_check,
    sequential_equivalence_check,
)
from repro.sim.logicsim import CombinationalSimulator, toggle_counts
from repro.sim.seqsim import (
    SequentialSimulator,
    apply_key_to_sequence,
    constant_key_sequence,
    simulate_sequence,
)
from repro.sim.waveform import Waveform, render_table


def adder_bit() -> Circuit:
    """Full-adder combinational circuit."""
    circuit = Circuit("fa")
    for net in ("a", "b", "cin"):
        circuit.add_input(net)
    circuit.add_gate("axb", GateType.XOR, ["a", "b"])
    circuit.add_gate("s", GateType.XOR, ["axb", "cin"])
    circuit.add_gate("t1", GateType.AND, ["a", "b"])
    circuit.add_gate("t2", GateType.AND, ["axb", "cin"])
    circuit.add_gate("cout", GateType.OR, ["t1", "t2"])
    circuit.add_output("s")
    circuit.add_output("cout")
    return circuit


class TestCombinationalSim:
    def test_full_adder_truth_table(self):
        circuit = adder_bit()
        for a in (0, 1):
            for b in (0, 1):
                for cin in (0, 1):
                    values = CombinationalSimulator(circuit).evaluate({"a": a, "b": b, "cin": cin})
                    assert values["s"] == (a ^ b ^ cin)
                    assert values["cout"] == int(a + b + cin >= 2)

    def test_missing_input_raises(self):
        with pytest.raises(CircuitError):
            CombinationalSimulator(adder_bit()).evaluate({"a": 1, "b": 0})

    def test_simulator_matches_function(self):
        circuit = adder_bit()
        sim = CombinationalSimulator(circuit)
        out = sim.outputs({"a": 1, "b": 1, "cin": 0})
        assert out == {"s": 0, "cout": 1}

    def test_next_state_uses_dff_d(self):
        circuit = s27_circuit()
        sim = CombinationalSimulator(circuit)
        state = sim.next_state({net: 0 for net in circuit.inputs})
        assert set(state) == set(circuit.dffs)

    def test_toggle_counts_nonzero(self):
        circuit = adder_bit()
        vectors = [{"a": i & 1, "b": (i >> 1) & 1, "cin": 0} for i in range(8)]
        toggles = toggle_counts(circuit, vectors)
        assert any(count > 0 for count in toggles.values())


class TestSequentialSim:
    def test_reset_and_step(self):
        circuit = s27_circuit()
        sim = SequentialSimulator(circuit)
        first = sim.outputs({net: 0 for net in circuit.inputs})
        sim.reset()
        again = sim.outputs({net: 0 for net in circuit.inputs})
        assert first == again
        assert sim.cycle == 1

    def test_initial_state_override(self):
        circuit = s27_circuit()
        default = SequentialSimulator(circuit)
        forced = SequentialSimulator(circuit, initial_state={"G5": 1, "G6": 1, "G7": 1})
        vector = {net: 0 for net in circuit.inputs}
        assert default.state != forced.state

    def test_run_returns_waveform_with_observed_nets(self):
        circuit = s27_circuit()
        vectors = [{net: 0 for net in circuit.inputs}] * 5
        wave = simulate_sequence(circuit, vectors, observe=["G5"])
        assert len(wave) == 5
        assert all("G5" in row.signals for row in wave.rows)

    def test_apply_key_to_sequence_msb_first(self):
        vectors = [{"a": 0}] * 4
        keyed = apply_key_to_sequence(vectors, ["k0", "k1"], [0b10, 0b01])
        assert keyed[0]["k0"] == 1 and keyed[0]["k1"] == 0
        assert keyed[1]["k0"] == 0 and keyed[1]["k1"] == 1
        assert keyed[2]["k0"] == 1  # wraps

    def test_apply_key_requires_schedule(self):
        with pytest.raises(ValueError):
            apply_key_to_sequence([{"a": 0}], ["k0"], [])

    def test_constant_key_sequence(self):
        keyed = constant_key_sequence([{"a": 0}] * 3, ["k0", "k1"], 0b11)
        assert all(vec["k0"] == 1 and vec["k1"] == 1 for vec in keyed)


class TestWaveform:
    def test_pack_msb_first(self):
        assert Waveform.pack({"a": 1, "b": 0, "c": 1}, ["a", "b", "c"]) == 0b101

    def test_matches_and_divergence(self):
        wave_a = Waveform("a")
        wave_b = Waveform("b")
        for t in range(4):
            wave_a.append(t, {}, {"y": t % 2})
            wave_b.append(t, {}, {"y": t % 2 if t < 3 else 0})
        assert not wave_a.matches(wave_b)
        assert wave_a.first_divergence(wave_b) == 3
        assert wave_a.matches(wave_a)

    def test_to_table_and_render(self):
        wave = Waveform("w")
        wave.append(0, {"a": 1}, {"y": 0})
        rows = wave.to_table(["a"], ["y"])
        text = render_table(rows)
        assert "Time (ns)" in text and "y" in text


class TestEquivalence:
    def test_random_equivalence_identical(self):
        assert random_equivalence_check(s27_circuit(), s27_circuit(), num_vectors=64).equivalent

    def test_random_equivalence_detects_difference(self):
        original = adder_bit()
        broken = adder_bit()
        gate = broken.remove_gate("cout")
        broken.add_gate("cout", GateType.AND, gate.inputs)  # OR -> AND bug
        verdict = random_equivalence_check(original, broken, num_vectors=64)
        assert not verdict.equivalent
        assert verdict.counterexample is not None

    def test_sat_equivalence_identical(self):
        assert sat_equivalence_check(adder_bit(), adder_bit()).equivalent

    def test_sat_equivalence_detects_difference(self):
        original = adder_bit()
        broken = adder_bit()
        gate = broken.remove_gate("s")
        broken.add_gate("s", GateType.XNOR, gate.inputs)
        assert not sat_equivalence_check(original, broken).equivalent

    def test_sequential_equivalence_identical(self):
        verdict = sequential_equivalence_check(
            s27_circuit(), s27_circuit(), num_sequences=4, sequence_length=16
        )
        assert verdict.equivalent
