"""Unit tests for the bit-parallel engine (`repro.engine`).

Covers the compiler's levelization and slot allocation, every gate type's
packed evaluation against the scalar gate semantics, lane-word packing and
per-lane state words, the removed simulation knobs, the oracles' one-lane
answers and their accounting, and packed toggle counting against the
scalar :mod:`repro.sim` reference.  The oracles are also checked on random
circuits in ``tests/property/test_engine_properties.py``.
"""

import pickle
import random

import pytest

from repro.engine.batch_oracle import (
    BatchedCombinationalOracle,
    BatchedSequentialOracle,
)
from repro.engine.compiler import compile_circuit
from repro.engine.equivalence import packed_toggle_counts
from repro.engine.packed import PackedSimulator, key_words, pack_bits, stimulus_words
from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import GATE_EVAL, GateType
from repro.sim.equivalence import random_equivalence_check, sequential_equivalence_check
from repro.sim.logicsim import CombinationalSimulator, scalar_toggle_counts
from repro.sim.seqsim import simulate_sequence


def lane_words(vectors, nets):
    """One lane word per net: bit ``j`` is the net's value in ``vectors[j]``."""
    return {net: pack_bits([vector[net] for vector in vectors]) for net in nets}


def _small_circuit() -> Circuit:
    circuit = Circuit("small")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_gate("n1", GateType.AND, ["a", "b"])
    circuit.add_gate("n2", GateType.NOT, ["n1"])
    circuit.add_gate("n3", GateType.XOR, ["n2", "a"])
    circuit.add_output("n3")
    return circuit


def _toggle_circuit() -> Circuit:
    """One flip-flop that toggles on ``x`` and drives ``y``."""
    circuit = Circuit("seq")
    circuit.add_input("x")
    circuit.add_gate("d", GateType.XOR, ["q", "x"])
    circuit.add_dff("q", "d", init=0)
    circuit.add_gate("y", GateType.BUF, ["q"])
    circuit.add_output("y")
    return circuit


class TestCompiler:
    def test_levelization_is_monotone(self):
        circuit = _small_circuit()
        compiled = compile_circuit(circuit)
        assert compiled.level_of["a"] == 0
        assert compiled.level_of["n1"] == 1
        assert compiled.level_of["n2"] == 2
        assert compiled.level_of["n3"] == 3
        assert compiled.num_levels == 3
        # Every op's fanins live at strictly lower levels.
        level_of_slot = {
            compiled.slot_of[net]: level for net, level in compiled.level_of.items()
        }
        for op in compiled.ops:
            for slot in op.in_slots:
                assert level_of_slot[slot] < level_of_slot[op.out_slot]

    def test_ops_sorted_by_level(self):
        circuit = _small_circuit()
        compiled = compile_circuit(circuit)
        levels = [
            compiled.level_of[compiled.net_names[op.out_slot]] for op in compiled.ops
        ]
        assert levels == sorted(levels)

    def test_slots_are_dense_and_invertible(self):
        circuit = _small_circuit()
        compiled = compile_circuit(circuit)
        assert sorted(compiled.slot_of.values()) == list(range(compiled.num_slots))
        for net, slot in compiled.slot_of.items():
            assert compiled.net_names[slot] == net

    def test_dff_q_nets_are_level_zero_sources(self):
        circuit = Circuit("seq")
        circuit.add_input("x")
        circuit.add_gate("d", GateType.NOT, ["q"])
        circuit.add_dff("q", "d", init=1)
        circuit.add_gate("y", GateType.AND, ["q", "x"])
        circuit.add_output("y")
        compiled = compile_circuit(circuit)
        assert compiled.level_of["q"] == 0
        assert compiled.state_items == [("q", compiled.slot_of["q"], 1)]
        assert compiled.dff_d_slots == [("q", compiled.slot_of["d"])]

    def test_missing_driver_raises(self):
        circuit = Circuit("bad")
        circuit.add_input("a")
        circuit.add_gate("y", GateType.AND, ["a", "ghost"])
        circuit.add_output("y")
        with pytest.raises(CircuitError):
            compile_circuit(circuit)

    def test_unpickled_program_runs_identically(self):
        # Unpickling makes new op-kind strings, so run() must not dispatch
        # on their identity.
        from repro.benchmarks_data.generator import random_sequential_circuit

        circuit = random_sequential_circuit(
            "pickled", num_inputs=4, num_outputs=3, num_dffs=3, num_gates=40, seed=7
        ).circuit
        compiled = compile_circuit(circuit)
        restored = pickle.loads(pickle.dumps(compiled))
        rng = random.Random(7)
        mask = (1 << 64) - 1
        seed_values = [rng.getrandbits(64) for _ in range(compiled.num_slots)]
        expected, actual = list(seed_values), list(seed_values)
        compiled.run(expected, mask)
        restored.run(actual, mask)
        assert actual == expected


class TestGateKernels:
    @pytest.mark.parametrize("gtype", list(GateType))
    def test_packed_kernel_matches_scalar_semantics(self, gtype):
        arity = {
            GateType.BUF: 1, GateType.NOT: 1, GateType.MUX: 3,
            GateType.CONST0: 0, GateType.CONST1: 0,
        }.get(gtype, 2)
        circuit = Circuit(f"one_{gtype.value}")
        nets = [circuit.add_input(f"i{k}") for k in range(max(arity, 1))]
        circuit.add_gate("y", gtype, nets[:arity])
        circuit.add_output("y")
        sim = PackedSimulator(circuit)
        # Exhaustive over all input combinations, all packed as one batch.
        vectors = [
            {nets[k]: (code >> k) & 1 for k in range(len(nets))}
            for code in range(1 << len(nets))
        ]
        out = sim.output_words(lane_words(vectors, nets), width=len(vectors))
        for lane, vector in enumerate(vectors):
            operands = [vector[net] for net in nets[:arity]]
            assert (out["y"] >> lane) & 1 == GATE_EVAL[gtype](operands), (gtype, vector)

    def test_wide_gates(self):
        # 5-input AND/OR/XOR chains exercise the variadic kernels.
        for gtype in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
                      GateType.XOR, GateType.XNOR):
            circuit = Circuit("wide")
            nets = [circuit.add_input(f"i{k}") for k in range(5)]
            circuit.add_gate("y", gtype, nets)
            circuit.add_output("y")
            sim = PackedSimulator(circuit)
            vectors = [
                {nets[k]: (code >> k) & 1 for k in range(5)} for code in range(32)
            ]
            out = sim.output_words(lane_words(vectors, nets), width=32)
            for lane, vector in enumerate(vectors):
                operands = [vector[net] for net in nets]
                assert (out["y"] >> lane) & 1 == GATE_EVAL[gtype](operands)


class TestPacking:
    def test_pack_bits_sets_one_lane_per_value(self):
        rng = random.Random(0)
        for width in (1, 2, 63, 64, 65, 128):
            bits = [rng.randint(0, 1) for _ in range(width)]
            word = pack_bits(bits)
            assert [(word >> lane) & 1 for lane in range(width)] == bits
            assert word >> width == 0

    def test_pack_bits_reads_the_low_bit_of_each_value(self):
        assert pack_bits(bytes([1, 0, 1, 1])) == 0b1101
        assert pack_bits([2, 3, 255, 254]) == 0b0110
        assert pack_bits(b"") == pack_bits([]) == 0

    def test_stimulus_words_slice_lanes_out_of_drawn_bits(self):
        # Two vectors drawn net by net: lane j of each word is vector j.
        bits = bytes([1, 0, 1,
                      0, 1, 1])
        assert stimulus_words(bits, ["a", "b", "c"]) == {"a": 0b01, "b": 0b10, "c": 0b11}
        # Skip one leading bit per vector of three.
        assert stimulus_words(bits, ["b", "c"], start=1, stride=3) == {"b": 0b10, "c": 0b11}

    def test_key_words_apply_key_msb_first(self):
        """Bit 0 of the key value drives the last key input, in every lane."""
        mask = 0b1111
        assert key_words(["k0", "k1", "k2"], 0b110, mask) == {"k0": mask, "k1": mask, "k2": 0}
        assert key_words(["k0", "k1", "k2"], 0b001, mask) == {"k0": 0, "k1": 0, "k2": mask}


class TestPackedSimulator:
    def test_missing_primary_input_raises_like_scalar(self):
        circuit = _small_circuit()
        sim = PackedSimulator(circuit)
        # One lane, and a pass wider than one machine word.
        for width in (1, 200):
            with pytest.raises(CircuitError, match="missing word for primary input 'b'"):
                sim.output_words({"a": 0}, width=width)

    def test_state_broadcast_vs_per_lane(self):
        circuit = Circuit("seq")
        circuit.add_input("x")
        circuit.add_gate("d", GateType.XOR, ["q", "x"])
        circuit.add_dff("q", "d", init=0)
        circuit.add_gate("y", GateType.BUF, ["q"])
        circuit.add_output("y")
        sim = PackedSimulator(circuit)
        words = {"x": 0b10}
        # An all-ones state word sets q in every lane; lane j reads bit j.
        assert sim.output_words(words, {"q": 0b11}, width=2) == {"y": 0b11}
        assert sim.output_words(words, {"q": 0b10}, width=2) == {"y": 0b10}
        # An absent state word starts every lane from ff.init (0 here).
        assert sim.output_words(words, width=2) == {"y": 0}

    def test_default_state_is_ff_init_in_every_lane(self):
        circuit = Circuit("gated")
        circuit.add_input("a")
        circuit.add_gate("n", GateType.AND, ["a", "q"])
        circuit.add_gate("d", GateType.BUF, ["q"])
        circuit.add_dff("q", "d", init=1)
        circuit.add_output("n")
        sim = PackedSimulator(circuit)
        words = {"a": 0b1111}
        assert sim.initial_state_words(4) == {"q": 0b1111}
        assert sim.output_words(words, width=4) == {"n": 0b1111}
        assert sim.step_words(words, None, width=4) == ({"n": 0b1111}, {"q": 0b1111})
        # A state word clears q in the lanes whose bit is 0.
        assert sim.output_words(words, {"q": 0b0101}, width=4) == {"n": 0b0101}

    def test_one_lane_pass_is_a_scalar_evaluation(self):
        """A one-lane word is the net's 0/1 value: one vector needs no packing."""
        circuit = _small_circuit()
        sim = PackedSimulator(circuit)
        scalar = CombinationalSimulator(circuit)
        for vector in ({"a": a, "b": b} for a in (0, 1) for b in (0, 1)):
            assert sim.eval_words(vector, width=1) == scalar.evaluate(vector)
            assert sim.output_words(vector, width=1) == scalar.outputs(vector)


class TestEngineChoice:
    def test_unknown_engine_rejected(self):
        """One simulation path: the routers accept no engine knob at all."""
        circuit = _small_circuit()
        for engine in ("packed-numpy", "vector", "packed", "scalar"):
            with pytest.raises(TypeError):
                random_equivalence_check(circuit, circuit, engine=engine)
            with pytest.raises(TypeError):
                sequential_equivalence_check(circuit, circuit, engine=engine)


class TestBatchedOracles:
    def test_combinational_query_accounting_and_values(self):
        circuit = _small_circuit()
        scalar = CombinationalSimulator(circuit)
        oracle = BatchedCombinationalOracle(circuit)
        vectors = [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)]
        for count, vector in enumerate(vectors, start=1):
            assert oracle.query(vector) == scalar.outputs(vector)
            assert oracle.queries == count

    def test_query_words_answers_and_counts_every_lane(self):
        circuit = _small_circuit()
        oracle = BatchedCombinationalOracle(circuit)
        vectors = [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)]
        out = oracle.query_words(lane_words(vectors, circuit.inputs), len(vectors))
        assert oracle.queries == len(vectors)
        for lane, vector in enumerate(vectors):
            assert {net: (word >> lane) & 1 for net, word in out.items()} == \
                oracle.query(vector)
        assert oracle.queries == 2 * len(vectors)

    def test_scan_oracle_observes_next_state(self):
        """Through the scan chain the state is an input and the captured next
        state an output (``q__ns``)."""
        circuit = _toggle_circuit()
        scalar = CombinationalSimulator(circuit)
        oracle = BatchedCombinationalOracle(circuit)
        assert oracle.input_nets == ["x", "q"]
        for x in (0, 1):
            for q in (0, 1):
                assert oracle.query({"x": x, "q": q}) == {
                    "y": scalar.outputs({"x": x}, {"q": q})["y"],
                    "q__ns": scalar.next_state({"x": x}, {"q": q})["q"],
                }

    def test_missing_nets_read_zero(self):
        circuit = _toggle_circuit()
        scan = BatchedCombinationalOracle(circuit)
        assert scan.query({}) == scan.query({"x": 0, "q": 0}) == {"y": 0, "q__ns": 0}
        chip = BatchedSequentialOracle(circuit)
        assert chip.query([{}, {"x": 1}, {}]) == [{"y": 0}, {"y": 0}, {"y": 1}]

    def test_sequential_ragged_batch(self):
        circuit = _toggle_circuit()
        oracle = BatchedSequentialOracle(circuit)
        sequences = [
            [{"x": 1}, {"x": 0}, {"x": 1}],
            [{"x": 1}],
            [],
        ]
        responses = [oracle.query(seq) for seq in sequences]
        assert oracle.queries == 3
        assert [len(rows) for rows in responses] == [3, 1, 0]
        for seq, rows in zip(sequences, responses):
            assert rows == [row.signals for row in simulate_sequence(circuit, seq).rows]

    def test_sequential_oracle_reuses_simulator_and_resets(self):
        circuit = _toggle_circuit()
        oracle = BatchedSequentialOracle(circuit)
        sequence = [{"x": 1}, {"x": 0}]
        first = oracle.query(sequence)
        assert first == [row.signals for row in simulate_sequence(circuit, sequence).rows]
        # A second identical query must see a freshly reset chip.
        assert oracle.query(sequence) == first
        assert oracle.queries == 2


class TestPackedToggleCounts:
    def test_matches_scalar_toggle_counts(self):
        from repro.benchmarks_data.generator import random_sequential_circuit

        circuit = random_sequential_circuit(
            "tog", num_inputs=3, num_outputs=2, num_dffs=2, num_gates=20, seed=11
        ).circuit
        rng = random.Random(11)
        vectors = [
            {net: rng.randint(0, 1) for net in circuit.inputs} for _ in range(40)
        ]
        words = lane_words(vectors, circuit.inputs)
        assert packed_toggle_counts(circuit, words, 40) == scalar_toggle_counts(
            circuit, vectors
        )

    def test_empty_sequence(self):
        assert packed_toggle_counts(_small_circuit(), {}, 0) == {}

    def test_cycle_words(self):
        """Bit t of an input's word is its value in cycle t."""
        circuit = _small_circuit()
        words = {"a": 0b0110, "b": 0b1111}
        vectors = [{"a": (words["a"] >> t) & 1, "b": 1} for t in range(4)]
        assert packed_toggle_counts(circuit, words, 4) == scalar_toggle_counts(
            circuit, vectors
        )
        with pytest.raises(CircuitError, match="missing value for primary input 'b'"):
            packed_toggle_counts(circuit, {"a": 0}, 4)


class TestPackedSequentialCheck:
    def test_lane_0_is_reported_when_a_later_lane_fails_first(self):
        """The check may stop early only once lane 0 fails: a higher lane
        failing at an earlier cycle must not end it."""
        from repro.engine.equivalence import packed_sequential_equivalence_check
        from repro.sim.equivalence import scalar_sequential_equivalence_check

        original, locked = Circuit("zero"), Circuit("echo")
        for circuit in (original, locked):
            circuit.add_input("a")
            circuit.add_output("y")
        original.add_gate("y", GateType.CONST0, [])
        locked.add_gate("y", GateType.BUF, ["a"])
        lanes, length = 4, 8

        def first_one(bits, lane):
            row = bits[lane * length:(lane + 1) * length]
            return row.index(1) if 1 in row else length

        # A seed whose lane 0 first sees a = 1 after some other lane does.
        for seed in range(100):
            rng = random.Random(seed)
            bits = [rng.randint(0, 1) for _ in range(lanes * length)]
            firsts = [first_one(bits, lane) for lane in range(lanes)]
            if length > firsts[0] > min(firsts[1:]):
                break
        else:
            pytest.fail("no seed below 100 has a later lane failing first")
        kwargs = dict(num_sequences=lanes, sequence_length=length, seed=seed)
        packed = packed_sequential_equivalence_check(original, locked, **kwargs)
        scalar = scalar_sequential_equivalence_check(original, locked, **kwargs)
        assert (packed.checked, packed.counterexample) == \
            (scalar.checked, scalar.counterexample)
        assert packed.counterexample["sequence"] == 0
        assert packed.counterexample["cycle"] == firsts[0]
