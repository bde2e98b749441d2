"""Unit tests for repro.perf: the acceptance bars' timers and solver workloads."""

import math
import random

import pytest

import repro.perf as perf
from repro.perf import (
    layered_circuit_cnf,
    pigeonhole,
    search_instances,
    sustained_rate,
    timed,
)
from repro.sat.solver import Solver


class FakeClock:
    """A ``perf_counter`` stand-in that moves only when the workload says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture()
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(perf.time, "perf_counter", fake)
    return fake


def work_taking(clock, durations):
    """A workload whose successive calls take ``durations`` (binary-exact)."""
    steps = iter(durations)
    calls = []

    def work():
        calls.append(None)
        clock.now += next(steps)

    return work, calls


def satisfies(clauses, model):
    return all(any(model.get(abs(lit), 0) == (lit > 0) for lit in clause)
               for clause in clauses)


# --------------------------------------------------------------------- #
# timers
# --------------------------------------------------------------------- #
def test_harness_timed_and_sustained_rate():
    result, elapsed = timed(lambda: "value")
    assert result == "value" and elapsed >= 0.0
    rate = sustained_rate(lambda: None, units=64, repeats=1, min_seconds=0.001)
    assert rate > 0.0


def test_timed_measures_the_call_on_the_monotonic_clock(clock):
    work, calls = work_taking(clock, [0.75])
    assert timed(lambda: work() or "done") == ("done", 0.75)
    assert len(calls) == 1


def test_timed_propagates_exceptions():
    with pytest.raises(ZeroDivisionError):
        timed(lambda: 1 / 0)


def test_sustained_rate_loops_until_min_seconds(clock):
    work, calls = work_taking(clock, [0.25] * 4)
    assert sustained_rate(work, units=8, repeats=1, min_seconds=1.0) == 32.0
    assert len(calls) == 4


def test_sustained_rate_divides_by_measured_time_not_the_floor(clock):
    # The second round overshoots the floor: 2 rounds over 1.5 s, not 1 s.
    work, calls = work_taking(clock, [0.75, 0.75])
    assert sustained_rate(work, units=3, repeats=1, min_seconds=1.0) == 4.0
    assert len(calls) == 2


def test_sustained_rate_keeps_the_best_repeat(clock):
    # Repeats run 2, 4 and 2 rounds per second; the best one wins.
    work, calls = work_taking(clock, [0.5] * 2 + [0.25] * 4 + [0.5] * 2)
    assert sustained_rate(work, units=10, repeats=3, min_seconds=1.0) == 40.0
    assert len(calls) == 8


@pytest.mark.parametrize("repeats", [0, -3])
def test_sustained_rate_runs_at_least_one_repeat(clock, repeats):
    work, calls = work_taking(clock, [0.5, 0.5])
    assert sustained_rate(work, units=1, repeats=repeats, min_seconds=1.0) == 2.0
    assert len(calls) == 2


# --------------------------------------------------------------------- #
# solver workloads
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("holes, pigeons", [(2, 3), (3, 4), (6, 7)])
def test_pigeonhole_shape(holes, pigeons):
    clauses = pigeonhole(holes, pigeons)
    assert len(clauses) == pigeons + holes * math.comb(pigeons, 2)
    at_least_one, at_most_one = clauses[:pigeons], clauses[pigeons:]
    assert all(len(clause) == holes and min(clause) > 0
               for clause in at_least_one)
    assert all(len(clause) == 2 and max(clause) < 0 for clause in at_most_one)
    used = {abs(lit) for clause in clauses for lit in clause}
    assert used == set(range(1, holes * pigeons + 1))


@pytest.mark.parametrize("holes, pigeons", [(1, 2), (2, 3), (3, 4)])
def test_pigeonhole_with_more_pigeons_is_unsat(holes, pigeons):
    solver = Solver()
    solver.add_clauses(pigeonhole(holes, pigeons))
    assert solver.solve() is False


@pytest.mark.parametrize("holes, pigeons", [(2, 2), (3, 3), (4, 2)])
def test_pigeonhole_with_room_for_every_pigeon_is_sat(holes, pigeons):
    clauses = pigeonhole(holes, pigeons)
    solver = Solver()
    solver.add_clauses(clauses)
    assert solver.solve() is True
    model = solver.model()
    assert satisfies(clauses, model)
    seated = [[h for h in range(holes) if model.get(p * holes + h + 1)]
              for p in range(pigeons)]
    taken = [h for holes_of_p in seated for h in holes_of_p]
    assert all(seated) and len(taken) == len(set(taken))


def test_layered_circuit_cnf_shape():
    clauses, num_inputs = layered_circuit_cnf(num_inputs=10, num_gates=300)
    assert num_inputs == 10
    assert 3 * 300 <= len(clauses) <= 4 * 300
    assert all(len(clause) in (2, 3) for clause in clauses)
    used = {abs(lit) for clause in clauses for lit in clause}
    # Every gate output is constrained, and nothing past the last gate is.
    assert set(range(11, 311)) <= used <= set(range(1, 311))


def test_layered_circuit_cnf_is_deterministic_per_seed():
    assert layered_circuit_cnf(8, 100, seed=4) == layered_circuit_cnf(8, 100, seed=4)
    assert layered_circuit_cnf(8, 100, seed=4) != layered_circuit_cnf(8, 100, seed=5)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_layered_circuit_cnf_gates_are_functions_of_the_inputs(seed):
    # Every input pattern extends to exactly one model: the clauses define
    # each gate output, which is what makes the BCP bar's queries all SAT.
    clauses, num_inputs = layered_circuit_cnf(num_inputs=8, num_gates=60, seed=seed)
    rng = random.Random(seed)
    inputs = [var if rng.random() < 0.5 else -var
              for var in range(1, num_inputs + 1)]
    solver = Solver()
    solver.add_clauses(clauses)
    assert solver.solve(assumptions=inputs) is True
    model = solver.model()
    assert satisfies(clauses, model)
    assert all(solver.model_literal(lit) == 1 for lit in inputs)
    gates = range(num_inputs + 1, num_inputs + 61)
    solver.add_clause([-var if model.get(var) else var for var in gates])
    assert solver.solve(assumptions=inputs) is False


@pytest.mark.parametrize("smoke, tail", [(True, (6, 7)), (False, (7, 8))])
def test_search_instances_shape(smoke, tail):
    corpus = search_instances(instances=3, num_vars=20, smoke=smoke)
    assert len(corpus) == 4
    assert corpus[-1] == pigeonhole(*tail)
    for clauses in corpus[:-1]:
        assert len(clauses) == int(20 * 4.26)
        assert all(len(clause) == 3 and all(1 <= abs(lit) <= 20 for lit in clause)
                   for clause in clauses)


def test_search_instances_are_deterministic():
    first = search_instances(instances=2, num_vars=30, smoke=True)
    assert first == search_instances(instances=2, num_vars=30, smoke=True)
    assert first[0] != first[1]
