"""Micro-benchmarks for the substrates (solver, simulator, encoder, locking).

These are conventional pytest-benchmark measurements (multiple rounds) that
track the performance of the building blocks every experiment rests on.
pytest-benchmark sizes its rounds adaptively, so ``REPRO_BENCH_SMOKE``
changes nothing here by design.
"""

import random

from repro.benchmarks_data.itc99 import load_itc99
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.cutelock_str import CuteLockStr
from repro.sat.solver import Solver
from repro.sat.tseitin import TseitinEncoder
from repro.sim.logicsim import CombinationalSimulator
from repro.sim.seqsim import SequentialSimulator


def test_perf_sat_solver_random_3sat(benchmark):
    rng = random.Random(0)
    num_vars, num_clauses = 60, 250
    clauses = [
        [rng.choice([1, -1]) * rng.randint(1, num_vars) for _ in range(3)]
        for _ in range(num_clauses)
    ]

    def run():
        solver = Solver()
        solver.add_clauses(clauses)
        return solver.solve()

    assert benchmark(run) in (True, False)


def test_perf_tseitin_encoding(benchmark):
    circuit = load_itc99("b14").circuit

    def run():
        return len(TseitinEncoder().encode(circuit).clauses)

    assert benchmark(run) > 0


def test_perf_sequential_simulation(benchmark):
    circuit = load_itc99("b14").circuit
    rng = random.Random(1)
    vectors = [{net: rng.randint(0, 1) for net in circuit.inputs} for _ in range(64)]

    def run():
        sim = SequentialSimulator(circuit)
        return sim.run(vectors)

    assert len(benchmark(run)) == 64


def test_perf_combinational_simulation(benchmark):
    circuit = load_itc99("b14").circuit.combinational_view()
    sim = CombinationalSimulator(circuit)
    rng = random.Random(2)
    vector = {net: rng.randint(0, 1) for net in circuit.inputs}
    assert benchmark(lambda: sim.outputs(vector))


def test_perf_fsm_synthesis(benchmark):
    fsm = random_fsm(16, 3, 3, seed=4)
    circuit = benchmark(lambda: synthesize_fsm(fsm))
    assert circuit.num_gates > 0


def test_perf_cutelock_str_transform(benchmark):
    circuit = load_itc99("b14").circuit
    transform = CuteLockStr(num_keys=8, key_width=4, num_locked_ffs=4, seed=5)
    locked = benchmark(lambda: transform.lock(circuit))
    assert locked.circuit.num_gates > circuit.num_gates
