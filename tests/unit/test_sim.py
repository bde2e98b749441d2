"""Unit tests for simulation (repro.sim): combinational, sequential, waveform,
and equivalence checking."""

import pytest

from repro.benchmarks_data.iscas89 import s27_circuit
from repro.locking.baselines import lock_rll
from repro.locking.cutelock_str import CuteLockStr
from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import GateType
from repro.sim.equivalence import (
    random_equivalence_check,
    scalar_random_equivalence_check,
    scalar_sequential_equivalence_check,
    sequential_equivalence_check,
)
from repro.sim.logicsim import CombinationalSimulator, scalar_toggle_counts
from repro.sim.seqsim import (
    SequentialSimulator,
    apply_key_to_sequence,
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
        toggles = scalar_toggle_counts(circuit, vectors)
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
        assert wave_a.matches(wave_a)

    def test_to_table_and_render(self):
        rows = [{"Time (ns)": "0", "a": "1", "y": "0"}]
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

    def test_sequential_equivalence_identical(self):
        verdict = sequential_equivalence_check(
            s27_circuit(), s27_circuit(), num_sequences=4, sequence_length=16
        )
        assert verdict.equivalent

    @pytest.mark.parametrize("size", [0, -3])
    def test_random_check_of_no_vectors_rejected(self, size):
        """Zero vectors used to pass a wrong key (``equivalent=True, checked=0``)."""
        locked = lock_rll(s27_circuit(), 4, seed=1)
        wrong = {net: 1 - bit for net, bit in locked.correct_key_bits(0).items()}
        for check in (random_equivalence_check, scalar_random_equivalence_check):
            assert not check(locked.original, locked.circuit, key_assignment=wrong).equivalent
            with pytest.raises(ValueError, match="num_vectors must be >= 1"):
                check(locked.original, locked.circuit, key_assignment=wrong,
                      num_vectors=size)

    def test_check_of_no_shared_output_rejected(self):
        """A BUF driving y against a NOT driving z used to pass (256 vectors,
        512 cycles compared nothing)."""
        buffered, inverted = Circuit("buf"), Circuit("not")
        for circuit in (buffered, inverted):
            circuit.add_input("a")
        buffered.add_gate("y", GateType.BUF, ["a"])
        buffered.add_output("y")
        inverted.add_gate("z", GateType.NOT, ["a"])
        inverted.add_output("z")
        for check in (random_equivalence_check, scalar_random_equivalence_check,
                      sequential_equivalence_check, scalar_sequential_equivalence_check):
            with pytest.raises(ValueError, match="share no output"):
                check(buffered, inverted)

    def test_check_compares_only_shared_outputs(self):
        """An output that only one circuit has is left out of the comparison."""
        original, extended, broken = adder_bit(), adder_bit(), adder_bit()
        gate = broken.remove_gate("cout")
        broken.add_gate("cout", GateType.AND, gate.inputs)  # OR -> AND bug
        for circuit in (extended, broken):
            circuit.add_gate("p", GateType.NAND, ["a", "b"])
            circuit.add_output("p")
        for check in (random_equivalence_check, scalar_random_equivalence_check,
                      sequential_equivalence_check, scalar_sequential_equivalence_check):
            assert check(original, extended).equivalent
            assert check(extended, original).equivalent
            assert not check(original, broken).equivalent

    @pytest.mark.parametrize("knob", ["num_sequences", "sequence_length"])
    @pytest.mark.parametrize("size", [0, -3])
    def test_sequential_check_of_nothing_rejected(self, knob, size):
        locked = CuteLockStr(num_keys=4, key_width=2, seed=4).lock(s27_circuit())
        wrong = [value ^ 1 for value in locked.schedule.values]
        for check in (sequential_equivalence_check, scalar_sequential_equivalence_check):
            with pytest.raises(ValueError, match=f"{knob} must be >= 1"):
                check(locked.original, locked.circuit, key_schedule=wrong,
                      key_inputs=locked.key_inputs, **{knob: size})
