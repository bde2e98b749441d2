"""Property tests: the packed engine is bit-exact versus the scalar simulators.

The scalar simulators and ``scalar_*`` loops in :mod:`repro.sim` are the
reference implementation; every claim the engine makes (combinational
evaluation, next-state capture, lockstep sequential simulation, toggle
counting, random and sequential equivalence verdicts) is cross-checked here
on randomized FSM- and ISCAS-style circuits covering all gate types, DFF
init values, and batch widths from 1 to 256 (the lane count of every key
verification).
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.benchmarks_data.generator import random_sequential_circuit
from repro.engine.equivalence import (
    packed_random_equivalence_check,
    packed_sequential_equivalence_check,
    packed_toggle_counts,
)
from repro.engine.packed import PackedSimulator, pack_vectors
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.sim.equivalence import (
    scalar_random_equivalence_check,
    scalar_sequential_equivalence_check,
)
from repro.sim.logicsim import CombinationalSimulator, scalar_toggle_counts
from repro.sim.seqsim import SequentialSimulator

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

_ALL_GATES = [GateType.BUF, GateType.NOT, GateType.AND, GateType.NAND,
              GateType.OR, GateType.NOR, GateType.XOR, GateType.XNOR,
              GateType.MUX, GateType.CONST0, GateType.CONST1]


def _random_circuit_all_gates(seed: int, *, num_dffs: int) -> Circuit:
    """A random circuit drawing from *every* gate type (incl. MUX/CONST),
    with randomized DFF init values — shapes the generator never emits."""
    rng = random.Random(seed)
    circuit = Circuit(f"allgates{seed}")
    nets = [circuit.add_input(f"i{k}") for k in range(rng.randint(2, 5))]
    q_nets = [f"q{k}" for k in range(num_dffs)]
    nets.extend(q_nets)
    for index in range(rng.randint(6, 24)):
        gtype = rng.choice(_ALL_GATES)
        out = f"g{index}"
        if gtype in (GateType.CONST0, GateType.CONST1):
            sources = []
        elif gtype in (GateType.BUF, GateType.NOT):
            sources = [rng.choice(nets)]
        elif gtype is GateType.MUX:
            sources = [rng.choice(nets) for _ in range(3)]
        else:
            sources = [rng.choice(nets) for _ in range(rng.randint(2, 4))]
        circuit.add_gate(out, gtype, sources)
        nets.append(out)
    gate_nets = [n for n in nets if n in circuit.gates]
    for k in range(num_dffs):
        circuit.add_dff(q_nets[k], rng.choice(gate_nets), init=rng.randint(0, 1))
    for net in rng.sample(gate_nets, min(rng.randint(1, 3), len(gate_nets))):
        circuit.add_output(net)
    return circuit


# --------------------------------------------------------------------------- #
# Combinational: evaluate / outputs / next_state, batch widths 1..128
# --------------------------------------------------------------------------- #
@SLOW
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([1, 2, 5, 63, 64, 65, 128]))
def test_packed_matches_combinational_simulator(seed, width):
    rng = random.Random(seed)
    circuit = _random_circuit_all_gates(seed, num_dffs=rng.randint(0, 3))
    scalar = CombinationalSimulator(circuit)
    packed = PackedSimulator(circuit)

    vectors = [
        {net: rng.randint(0, 1) for net in circuit.inputs} for _ in range(width)
    ]
    states = [
        {q: rng.randint(0, 1) for q in circuit.dffs} for _ in range(width)
    ]
    assert packed.evaluate_batch(vectors, states) == [
        scalar.evaluate(v, s) for v, s in zip(vectors, states)
    ]
    assert packed.outputs_batch(vectors, states) == [
        scalar.outputs(v, s) for v, s in zip(vectors, states)
    ]
    assert packed.next_state_batch(vectors, states) == [
        scalar.next_state(v, s) for v, s in zip(vectors, states)
    ]
    # Default state (ff.init) path.
    assert packed.outputs_batch(vectors) == [scalar.outputs(v) for v in vectors]


# --------------------------------------------------------------------------- #
# Sequential: packed lockstep lanes equal one scalar run per lane
# --------------------------------------------------------------------------- #
@SLOW
@given(st.integers(min_value=0, max_value=10_000))
def test_packed_lockstep_matches_sequential_simulator(seed):
    rng = random.Random(seed)
    circuit = _random_circuit_all_gates(seed, num_dffs=rng.randint(1, 4))
    lanes, length = rng.randint(1, 8), rng.randint(1, 12)
    sequences = [
        [{net: rng.randint(0, 1) for net in circuit.inputs} for _ in range(length)]
        for _ in range(lanes)
    ]

    packed = PackedSimulator(circuit)
    state = packed.initial_state_words(lanes)
    packed_rows = []
    for t in range(length):
        words = pack_vectors([seq[t] for seq in sequences], circuit.inputs)
        out, state = packed.step_words(words, state, width=lanes)
        packed_rows.append(out)

    for lane, sequence in enumerate(sequences):
        sim = SequentialSimulator(circuit)
        for t, vector in enumerate(sequence):
            scalar_out = sim.outputs(vector)
            for net in circuit.outputs:
                assert (packed_rows[t][net] >> lane) & 1 == scalar_out[net]


# --------------------------------------------------------------------------- #
# FSM circuits through the fsm synthesis pipeline
# --------------------------------------------------------------------------- #
@SLOW
@given(st.integers(min_value=0, max_value=500))
def test_packed_matches_scalar_on_fsm_circuits(seed):
    rng = random.Random(seed)
    fsm = random_fsm(rng.randint(2, 6), 2, 2, seed=seed)
    circuit = synthesize_fsm(fsm, style=rng.choice(["sop", "mux"]))
    scalar = CombinationalSimulator(circuit)
    width = rng.randint(1, 128)
    vectors = [
        {net: rng.randint(0, 1) for net in circuit.inputs} for _ in range(width)
    ]
    assert PackedSimulator(circuit).outputs_batch(vectors) == [
        scalar.outputs(v) for v in vectors
    ]


# --------------------------------------------------------------------------- #
# Toggle counting: packed == scalar on ISCAS-style generated circuits
# --------------------------------------------------------------------------- #
@SLOW
@given(st.integers(min_value=0, max_value=10_000))
def test_packed_toggle_counts_match_scalar(seed):
    rng = random.Random(seed)
    circuit = random_sequential_circuit(
        f"tg{seed}", num_inputs=rng.randint(2, 4), num_outputs=2,
        num_dffs=rng.randint(0, 3), num_gates=rng.randint(5, 30), seed=seed,
    ).circuit
    cycles = rng.randint(1, 80)
    vectors = [
        {net: rng.randint(0, 1) for net in circuit.inputs} for _ in range(cycles)
    ]
    initial = {q: rng.randint(0, 1) for q in circuit.dffs} or None
    assert packed_toggle_counts(circuit, vectors, initial_state=initial) == \
        scalar_toggle_counts(circuit, vectors, initial_state=initial)


# --------------------------------------------------------------------------- #
# Equivalence checks: packed verdicts reproduce the scalar reference exactly
# --------------------------------------------------------------------------- #
@SLOW
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_packed_random_equivalence_matches_scalar(seed, mutate):
    rng = random.Random(seed)
    circuit = random_sequential_circuit(
        f"eq{seed}", num_inputs=3, num_outputs=2, num_dffs=2,
        num_gates=rng.randint(8, 25), seed=seed,
    ).circuit
    candidate = circuit
    if mutate:
        from repro.netlist.bench import parse_bench, write_bench

        candidate = parse_bench(write_bench(circuit), name=circuit.name)
        victim = rng.choice(sorted(candidate.gates))
        gate = candidate.remove_gate(victim)
        flipped = {GateType.AND: GateType.NAND, GateType.NAND: GateType.AND,
                   GateType.OR: GateType.NOR, GateType.NOR: GateType.OR,
                   GateType.XOR: GateType.XNOR, GateType.XNOR: GateType.XOR,
                   GateType.NOT: GateType.BUF, GateType.BUF: GateType.NOT}
        new_type = flipped.get(gate.gtype, GateType.NOT)
        new_inputs = (list(gate.inputs)[:1]
                      if new_type in (GateType.NOT, GateType.BUF)
                      else list(gate.inputs))
        candidate.add_gate(victim, new_type, new_inputs)

    # 256 is the lane count of every SAT / DoubleDIP / AppSAT key check.
    num_vectors = rng.choice([1, 16, 64, 128, 200, 256])
    packed = packed_random_equivalence_check(
        circuit, candidate, num_vectors=num_vectors, seed=seed)
    scalar = scalar_random_equivalence_check(
        circuit, candidate, num_vectors=num_vectors, seed=seed)
    assert (packed.equivalent, packed.checked, packed.counterexample) == \
        (scalar.equivalent, scalar.checked, scalar.counterexample)


@SLOW
@given(st.integers(min_value=0, max_value=200))
def test_packed_sequential_equivalence_matches_scalar(seed):
    from repro.locking.cutelock_str import CuteLockStr

    rng = random.Random(seed)
    fsm = random_fsm(rng.randint(3, 6), 2, 2, seed=seed)
    circuit = synthesize_fsm(fsm, style="mux")
    locked = CuteLockStr(num_keys=2, key_width=2, num_locked_ffs=1,
                         seed=seed).lock(circuit)
    # Half the examples use the correct schedule (equivalent verdict), half a
    # perturbed one (likely counterexample); both must match the scalar path.
    schedule = list(locked.schedule.values)
    if rng.random() < 0.5:
        schedule[rng.randrange(len(schedule))] ^= 1 << rng.randrange(2)
    kwargs = dict(key_schedule=tuple(schedule), key_inputs=locked.key_inputs,
                  num_sequences=rng.randint(1, 4),
                  sequence_length=rng.randint(1, 10), seed=seed)
    packed = packed_sequential_equivalence_check(circuit, locked.circuit, **kwargs)
    scalar = scalar_sequential_equivalence_check(circuit, locked.circuit, **kwargs)
    assert (packed.equivalent, packed.checked, packed.counterexample) == \
        (scalar.equivalent, scalar.checked, scalar.counterexample)
