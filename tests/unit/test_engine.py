"""Unit tests for the bit-parallel engine (`repro.engine`).

Covers the compiler's levelization and slot allocation, every gate type's
packed evaluation against the scalar gate semantics, the packing/transpose
round trip, the removed simulation knobs, and the batched oracles'
accounting against the scalar :mod:`repro.sim` reference.
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
from repro.engine.packed import (
    PackedSimulator,
    pack_bits,
    pack_vectors,
    unpack_bits,
    unpack_vectors,
)
from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import GATE_EVAL, GateType
from repro.sim.equivalence import random_equivalence_check, sequential_equivalence_check
from repro.sim.logicsim import CombinationalSimulator, scalar_toggle_counts, toggle_counts
from repro.sim.seqsim import simulate_sequence


def _small_circuit() -> Circuit:
    circuit = Circuit("small")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_gate("n1", GateType.AND, ["a", "b"])
    circuit.add_gate("n2", GateType.NOT, ["n1"])
    circuit.add_gate("n3", GateType.XOR, ["n2", "a"])
    circuit.add_output("n3")
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
        packed_out = sim.outputs_batch(vectors)
        for vector, out in zip(vectors, packed_out):
            operands = [vector[net] for net in nets[:arity]]
            assert out["y"] == GATE_EVAL[gtype](operands), (gtype, vector)

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
            for vector, out in zip(vectors, sim.outputs_batch(vectors)):
                operands = [vector[net] for net in nets]
                assert out["y"] == GATE_EVAL[gtype](operands)


class TestPacking:
    def test_pack_unpack_bits_roundtrip(self):
        rng = random.Random(0)
        for width in (1, 2, 63, 64, 65, 128):
            bits = [rng.randint(0, 1) for _ in range(width)]
            assert unpack_bits(pack_bits(bits), width) == bits

    def test_pack_unpack_vectors_roundtrip(self):
        rng = random.Random(1)
        nets = ["a", "b", "c"]
        for count in (1, 7, 64, 130):
            vectors = [
                {net: rng.randint(0, 1) for net in nets} for _ in range(count)
            ]
            words = pack_vectors(vectors, nets)
            assert unpack_vectors(words, nets, count) == vectors

    def test_pack_vectors_missing_net_raises(self):
        with pytest.raises(CircuitError):
            pack_vectors([{"a": 1}], ["a", "b"])

    def test_pack_vectors_default_fills_missing(self):
        words = pack_vectors([{"a": 1}, {}], ["a", "b"], default=0)
        assert words == {"a": 0b01, "b": 0}


class TestPackedSimulator:
    def test_missing_primary_input_raises_like_scalar(self):
        circuit = _small_circuit()
        sim = PackedSimulator(circuit)
        with pytest.raises(CircuitError):
            sim.outputs_batch([{"a": 1}])
        # Word-level API, on a pass wider than one machine word.
        with pytest.raises(CircuitError, match="missing word for primary input"):
            sim.output_words({"a": 0}, width=200)

    def test_empty_batch(self):
        sim = PackedSimulator(_small_circuit())
        assert sim.evaluate_batch([]) == []
        assert sim.outputs_batch([]) == []
        assert sim.next_state_batch([]) == []

    def test_state_broadcast_vs_per_lane(self):
        circuit = Circuit("seq")
        circuit.add_input("x")
        circuit.add_gate("d", GateType.XOR, ["q", "x"])
        circuit.add_dff("q", "d", init=0)
        circuit.add_gate("y", GateType.BUF, ["q"])
        circuit.add_output("y")
        sim = PackedSimulator(circuit)
        vectors = [{"x": 0}, {"x": 1}]
        broadcast = sim.outputs_batch(vectors, {"q": 1})
        per_lane = sim.outputs_batch(vectors, [{"q": 1}, {"q": 1}])
        assert broadcast == per_lane == [{"y": 1}, {"y": 1}]
        # Absent state bits fall back to ff.init (0 here).
        assert sim.outputs_batch(vectors, [{}, {"q": 1}]) == [{"y": 0}, {"y": 1}]

    def test_per_lane_state_list_must_match_batch(self):
        circuit = Circuit("gated")
        circuit.add_input("a")
        circuit.add_gate("n", GateType.AND, ["a", "q"])
        circuit.add_gate("d", GateType.BUF, ["q"])
        circuit.add_dff("q", "d", init=1)
        circuit.add_output("n")
        sim = PackedSimulator(circuit)
        vectors = [{"a": 1}] * 4
        assert sim.outputs_batch(vectors) == [{"n": 1}] * 4
        assert sim.outputs_batch(vectors, [{"q": 1}] * 4) == [{"n": 1}] * 4
        for states in ([{"q": 1}] * 2, [{"q": 1}] * 5):
            message = f"{len(states)} state vectors for a batch of 4"
            for batch in (sim.evaluate_batch, sim.outputs_batch, sim.next_state_batch):
                with pytest.raises(ValueError, match=message):
                    batch(vectors, states)

    def test_refresh_recompiles(self):
        circuit = _small_circuit()
        sim = PackedSimulator(circuit)
        assert sim.outputs_batch([{"a": 1, "b": 1}]) == [{"n3": 1}]
        circuit.add_gate("n4", GateType.NOT, ["n3"])
        circuit.add_output("n4")
        sim.refresh()
        assert sim.outputs_batch([{"a": 1, "b": 1}]) == [{"n3": 1, "n4": 0}]


class TestEngineChoice:
    def test_unknown_engine_rejected(self):
        """One simulation path: the routers accept no engine knob at all."""
        circuit = _small_circuit()
        vectors = [{"a": 1, "b": 0}] * 4
        for engine in ("packed-numpy", "vector", "packed", "scalar"):
            with pytest.raises(TypeError):
                random_equivalence_check(circuit, circuit, engine=engine)
            with pytest.raises(TypeError):
                sequential_equivalence_check(circuit, circuit, engine=engine)
            with pytest.raises(TypeError):
                toggle_counts(circuit, vectors, engine=engine)


class TestBatchedOracles:
    def test_combinational_query_accounting_and_values(self):
        circuit = _small_circuit()
        scalar = CombinationalSimulator(circuit)
        batched = BatchedCombinationalOracle(circuit)
        vectors = [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)]
        batch_out = batched.query_batch(vectors)
        assert batched.queries == len(vectors)
        for vector, out in zip(vectors, batch_out):
            assert out == scalar.outputs(vector)
        # Scalar query on the batched oracle keeps counting by one.
        assert batched.query(vectors[0]) == batch_out[0]
        assert batched.queries == len(vectors) + 1

    def test_sequential_ragged_batch(self):
        circuit = Circuit("seq")
        circuit.add_input("x")
        circuit.add_gate("d", GateType.XOR, ["q", "x"])
        circuit.add_dff("q", "d", init=0)
        circuit.add_gate("y", GateType.BUF, ["q"])
        circuit.add_output("y")
        batched = BatchedSequentialOracle(circuit)
        sequences = [
            [{"x": 1}, {"x": 0}, {"x": 1}],
            [{"x": 1}],
            [],
        ]
        batch_out = batched.query_batch(sequences)
        assert batched.queries == 3
        assert batched.cycles == 4
        assert [len(rows) for rows in batch_out] == [3, 1, 0]
        for seq, rows in zip(sequences, batch_out):
            assert rows == [row.signals for row in simulate_sequence(circuit, seq).rows]

    def test_sequential_oracle_reuses_simulator_and_resets(self):
        circuit = Circuit("seq")
        circuit.add_input("x")
        circuit.add_gate("d", GateType.XOR, ["q", "x"])
        circuit.add_dff("q", "d", init=0)
        circuit.add_gate("y", GateType.BUF, ["q"])
        circuit.add_output("y")
        oracle = BatchedSequentialOracle(circuit)
        sequence = [{"x": 1}, {"x": 0}]
        first = oracle.query(sequence)
        assert first == [row.signals for row in simulate_sequence(circuit, sequence).rows]
        # A second identical query must see a freshly reset chip.
        assert oracle.query(sequence) == first
        assert oracle.queries == 2
        assert oracle.cycles == 4


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
        assert packed_toggle_counts(circuit, vectors) == scalar_toggle_counts(
            circuit, vectors
        )

    def test_empty_sequence(self):
        assert packed_toggle_counts(_small_circuit(), []) == {}
