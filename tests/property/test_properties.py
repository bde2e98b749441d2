"""Property-based tests (hypothesis) on the core data structures and the
locking/attack invariants."""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fsm.minimize import evaluate_cover, quine_mccluskey
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import TruthTable, synthesize_truth_table
from repro.locking.base import KeySchedule, pack_key_bits, unpack_key_value
from repro.locking.counter import insert_counter
from repro.locking.cutelock_str import CuteLockStr
from repro.netlist.bench import parse_bench, write_bench
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.sat.solver import Solver
from repro.sat.tseitin import TseitinEncoder
from repro.sim.equivalence import random_equivalence_check
from repro.sim.logicsim import CombinationalSimulator
from repro.sim.seqsim import SequentialSimulator

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
FAST = settings(max_examples=50, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------- #
# SAT solver vs brute force
# --------------------------------------------------------------------------- #
@st.composite
def cnf_instances(draw):
    num_vars = draw(st.integers(min_value=1, max_value=6))
    num_clauses = draw(st.integers(min_value=1, max_value=20))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        clause = [
            draw(st.integers(min_value=1, max_value=num_vars))
            * draw(st.sampled_from([1, -1]))
            for _ in range(width)
        ]
        clauses.append(clause)
    return num_vars, clauses


@FAST
@given(cnf_instances())
def test_solver_agrees_with_brute_force(instance):
    num_vars, clauses = instance
    solver = Solver()
    solver.add_clauses(clauses)
    result = solver.solve()
    brute = any(
        all(any((lit > 0) == bool((model >> (abs(lit) - 1)) & 1) for lit in clause)
            for clause in clauses)
        for model in range(1 << num_vars)
    )
    assert result == brute
    if result:
        model = solver.model()
        assert all(
            any((lit > 0) == bool(model.get(abs(lit), 0)) for lit in clause)
            for clause in clauses
        )


# --------------------------------------------------------------------------- #
# Quine-McCluskey covers exactly the requested on-set
# --------------------------------------------------------------------------- #
@FAST
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.integers(min_value=0, max_value=(1 << n) - 1)),
        )
    )
)
def test_quine_mccluskey_exact_cover(data):
    num_vars, onset = data
    cover = quine_mccluskey(sorted(onset), num_vars)
    for assignment in range(1 << num_vars):
        assert evaluate_cover(cover, assignment) == int(assignment in onset)


# --------------------------------------------------------------------------- #
# Truth-table synthesis equals the function (both styles)
# --------------------------------------------------------------------------- #
@SLOW
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**16 - 1),
    st.sampled_from(["sop", "mux"]),
)
def test_truth_table_synthesis_matches(num_vars, onset_bits, style):
    size = 1 << num_vars
    onset = onset_bits & ((1 << size) - 1)
    table = TruthTable(num_vars, onset)
    circuit = Circuit("prop")
    nets = [f"v{i}" for i in range(num_vars)]
    for net in nets:
        circuit.add_input(net)
    out = synthesize_truth_table(circuit, table, nets, style=style)
    circuit.add_output(out)
    for assignment in range(size):
        values = {nets[i]: (assignment >> i) & 1 for i in range(num_vars)}
        expected = (onset >> assignment) & 1
        assert CombinationalSimulator(circuit).evaluate(values)[out] == expected


# --------------------------------------------------------------------------- #
# Tseitin encoding is consistent with simulation on random circuits
# --------------------------------------------------------------------------- #
@SLOW
@given(st.integers(min_value=0, max_value=10_000))
def test_tseitin_consistent_with_simulation(seed):
    rng = random.Random(seed)
    circuit = Circuit(f"rand{seed}")
    nets = []
    for index in range(3):
        net = f"i{index}"
        circuit.add_input(net)
        nets.append(net)
    for index in range(8):
        gtype = rng.choice([GateType.AND, GateType.OR, GateType.XOR, GateType.NAND,
                            GateType.NOR, GateType.NOT, GateType.MUX])
        out = f"g{index}"
        if gtype == GateType.NOT:
            circuit.add_gate(out, gtype, [rng.choice(nets)])
        elif gtype == GateType.MUX:
            circuit.add_gate(out, gtype, [rng.choice(nets) for _ in range(3)])
        else:
            circuit.add_gate(out, gtype, [rng.choice(nets) for _ in range(2)])
        nets.append(out)
    circuit.add_output(nets[-1])

    vector = {f"i{k}": rng.randint(0, 1) for k in range(3)}
    expected = CombinationalSimulator(circuit).evaluate(vector)[nets[-1]]

    encoder = TseitinEncoder()
    cnf = encoder.encode(circuit)
    solver = Solver()
    solver.add_clauses(cnf.clauses)
    assumptions = [encoder.literal(net, bool(value)) for net, value in vector.items()]
    assert solver.solve(assumptions=assumptions) is True
    assert solver.model()[encoder.var(nets[-1])] == expected


# --------------------------------------------------------------------------- #
# BENCH round-trip preserves structure
# --------------------------------------------------------------------------- #
@SLOW
@given(st.integers(min_value=0, max_value=10_000))
def test_bench_roundtrip_preserves_behaviour(seed):
    from repro.benchmarks_data.generator import random_sequential_circuit

    generated = random_sequential_circuit(
        f"rt{seed}", num_inputs=3, num_outputs=2, num_dffs=2, num_gates=12, seed=seed
    )
    circuit = generated.circuit
    reparsed = parse_bench(write_bench(circuit), name=circuit.name)
    assert random_equivalence_check(circuit, reparsed, num_vectors=32).equivalent


# --------------------------------------------------------------------------- #
# Key schedule packing invariants
# --------------------------------------------------------------------------- #
@FAST
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**12 - 1))
def test_key_pack_unpack_roundtrip(width, value):
    value %= 1 << width
    key_inputs = [f"k{i}" for i in range(width)]
    assert pack_key_bits(unpack_key_value(value, key_inputs), key_inputs) == value


@FAST
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=1000))
def test_random_schedule_in_range_and_collapsible(num_keys, width, seed):
    schedule = KeySchedule.random(num_keys, width, seed=seed)
    assert all(0 <= value < (1 << width) for value in schedule.values)
    collapsed = schedule.collapsed()
    assert collapsed.is_static()
    assert collapsed.num_keys == schedule.num_keys


# --------------------------------------------------------------------------- #
# Counter insertion always yields a valid modulo counter
# --------------------------------------------------------------------------- #
@FAST
@given(st.integers(min_value=1, max_value=9))
def test_counter_counts_modulo_period(period):
    circuit = Circuit("cnt")
    circuit.add_input("x")
    circuit.add_gate("y", GateType.BUF, ["x"])
    circuit.add_output("y")
    info = insert_counter(circuit, period)
    sim = SequentialSimulator(circuit)
    for cycle in range(2 * period + 2):
        snapshot = sim.step({"x": 0})
        value = sum(snapshot[q] << bit for bit, q in enumerate(info.state_nets))
        assert value == cycle % period


# --------------------------------------------------------------------------- #
# Cute-Lock-Str functional invariant on random FSM circuits
# --------------------------------------------------------------------------- #
@SLOW
@given(st.integers(min_value=0, max_value=200))
def test_cutelock_str_correct_schedule_always_equivalent(seed):
    rng = random.Random(seed)
    fsm = random_fsm(rng.randint(3, 8), 2, 2, seed=seed)
    from repro.fsm.synthesis import synthesize_fsm

    circuit = synthesize_fsm(fsm, style="mux")
    num_keys = rng.choice([2, 4])
    key_width = rng.randint(1, 3)
    locked = CuteLockStr(num_keys=num_keys, key_width=key_width,
                         num_locked_ffs=rng.randint(1, 2), seed=seed).lock(circuit)

    from repro.sim.equivalence import sequential_equivalence_check

    verdict = sequential_equivalence_check(
        circuit, locked.circuit,
        key_schedule=locked.schedule.values, key_inputs=locked.key_inputs,
        num_sequences=3, sequence_length=3 * num_keys,
    )
    assert verdict.equivalent
