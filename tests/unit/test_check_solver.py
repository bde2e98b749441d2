"""Unit tests for the CNF checker and solver-state sanitizer (repro.check.solver).

The corruption tests mutate solver internals directly — the point of the
sanitizer is to catch exactly the states a buggy propagator or learner
could produce, so each test seeds one such state and asserts the checker
names it precisely.
"""

import heapq

import pytest

from repro.check.solver import (
    SolverStateError,
    assert_cnf_ok,
    assert_solver_invariants,
    check_cnf,
    check_solver_invariants,
)
from repro.sat.cnf import CNF
from repro.sat.solver import Solver


def kinds_of(violations):
    return [v.kind for v in violations]


# --------------------------------------------------------------------- #
# CNF well-formedness
# --------------------------------------------------------------------- #
def test_clean_cnf_is_silent():
    cnf = CNF()
    cnf.add_clause([1, 2])
    cnf.add_clause([-1, 3])
    assert check_cnf(cnf) == []
    assert_cnf_ok(cnf)


def test_zero_literal_appended_behind_add_clause():
    # add_clause rejects literal 0, but nothing guards a hand-mutated or
    # deserialized clause list — the checker must.
    cnf = CNF()
    cnf.add_clause([1, 2])
    cnf.clauses.append((1, 0, -2))
    violations = check_cnf(cnf)
    assert kinds_of(violations) == ["zero-literal"]
    assert "clause #1" in violations[0].message
    with pytest.raises(SolverStateError) as err:
        assert_cnf_ok(cnf, context="table3 encoder output")
    assert "table3 encoder output" in str(err.value)


def test_out_of_range_variable():
    violations = check_cnf([(1, 99)], num_vars=3)
    assert kinds_of(violations) == ["out-of-range"]
    assert "variable 99" in violations[0].message


def test_empty_clause_duplicate_and_tautology():
    violations = check_cnf([(), (1, 1), (2, -2)])
    assert kinds_of(violations) == ["empty-clause", "duplicate-literal", "tautology"]


def test_plain_clause_iterables_accepted():
    assert check_cnf([[1, -2], [2, 3]], num_vars=3) == []


# --------------------------------------------------------------------- #
# clean solver states are silent
# --------------------------------------------------------------------- #
PIGEON_6 = [
    # 3 pigeons / 2 holes: small, UNSAT, exercises learning + backtracking.
    [1, 2], [3, 4], [5, 6],
    [-1, -3], [-1, -5], [-3, -5],
    [-2, -4], [-2, -6], [-4, -6],
]


def test_fresh_solver_is_clean():
    solver = Solver()
    solver.add_clauses([[1, 2, 3], [-1, 2], [-2, 3]])
    assert check_solver_invariants(solver) == []
    assert_solver_invariants(solver)


def test_solver_with_sanitizer_enabled_solves_clean():
    sat = Solver()
    sat.check_invariants = True
    sat.add_clauses([[1, 2, 3], [-1, 2], [-2, 3], [-3, -1]])
    assert sat.solve() is True
    assert check_solver_invariants(sat) == []

    unsat = Solver()
    unsat.check_invariants = True
    unsat.add_clauses(PIGEON_6)
    assert unsat.solve() is False


def test_env_flag_arms_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_SOLVER", "1")
    assert Solver().check_invariants
    monkeypatch.delenv("REPRO_CHECK_SOLVER")
    assert not Solver().check_invariants


# --------------------------------------------------------------------- #
# corrupted watch lists, clauses and order heap
# --------------------------------------------------------------------- #
def reference_with(clauses):
    solver = Solver()
    solver.add_clauses(clauses)
    return solver


def test_reference_mutated_watch_list_caught():
    solver = reference_with([[1, 2, 3], [-1, 2]])
    solver._watches[-1].remove(0)  # clause 0 no longer watched at literal 1
    violations = check_solver_invariants(solver)
    assert kinds_of(violations) == ["watch-missing"]
    assert "clause #0" in violations[0].message


def test_reference_duplicated_watch_caught():
    solver = reference_with([[1, 2, 3]])
    solver._watches[-1].extend(solver._watches[-1])  # clause 0 twice at literal 1
    assert "watch-duplicate" in kinds_of(check_solver_invariants(solver))


def test_reference_stray_watch_caught():
    solver = reference_with([[1, 2, 3]])
    # Watch clause 0 at its *tail* literal 3 as well: a valid clause index,
    # but not one of its two lead literals.
    solver._watches.setdefault(-3, []).append(0)
    assert "watch-stray" in kinds_of(check_solver_invariants(solver))


def test_reference_dangling_watch_caught():
    solver = reference_with([[1, 2]])
    solver._watches[-1].append(7)  # clause index outside the database
    assert "watch-corrupt" in kinds_of(check_solver_invariants(solver))


def test_reference_shrunken_clause_caught():
    solver = reference_with([[1, 2, 3]])
    solver.clauses[0] = [1]
    assert "clause-corrupt" in kinds_of(check_solver_invariants(solver))


def test_reference_dropped_heap_entry_caught():
    # Pushes are skipped while _heap_activity records a live current entry,
    # so an entry lost from the heap would starve its variable for good.
    solver = reference_with([[1, 2, 3], [-1, 2]])
    assert solver.solve() is True  # the final backtrack re-pushes every variable
    assert check_solver_invariants(solver) == []
    entry = next(
        entry for entry in solver._order_heap
        if solver._heap_activity[entry[1]] == -entry[0]
    )
    solver._order_heap.remove(entry)
    heapq.heapify(solver._order_heap)
    violations = check_solver_invariants(solver)
    assert kinds_of(violations) == ["heap-missing"]
    assert f"variable {entry[1]} " in violations[0].message


# --------------------------------------------------------------------- #
# trail / assignment / implication-graph corruption
# --------------------------------------------------------------------- #
def test_trail_assign_mismatch_caught():
    solver = reference_with([[1, 2]])
    solver._trail.append(1)  # on the trail but never assigned
    solver._qhead = len(solver._trail)
    assert "assign-mismatch" in kinds_of(check_solver_invariants(solver))


def test_assigned_but_not_on_trail_caught():
    solver = reference_with([[1, 2]])
    solver._assign[2] = 1
    assert "assign-mismatch" in kinds_of(check_solver_invariants(solver))


def test_duplicate_trail_variable_caught():
    solver = reference_with([[1, 2]])
    solver._assign[1] = 1
    solver._trail.extend([1, -1])
    solver._qhead = 2
    assert "trail-corrupt" in kinds_of(check_solver_invariants(solver))


def test_level_mismatch_caught():
    solver = reference_with([[1, 2]])
    solver._assign[1] = 1
    solver._trail.append(1)
    solver._qhead = 1
    solver._level[1] = 3  # recorded level disagrees with trail_lim ([] -> level 0)
    assert "level-mismatch" in kinds_of(check_solver_invariants(solver))


def test_qhead_out_of_bounds_caught():
    solver = reference_with([[1, 2]])
    solver._qhead = 5
    assert "trail-corrupt" in kinds_of(check_solver_invariants(solver))


def test_spliced_implication_cycle_caught():
    # Two implied literals citing each other as reasons: 2 because of
    # clause (2, -1), 1 because of clause (1, -2).  Each antecedent is
    # falsified but *later* on the trail — a cycle, which no real CDCL
    # derivation can produce.
    solver = reference_with([[2, -1], [1, -2]])
    solver._assign[1] = 1
    solver._assign[2] = 1
    solver._trail.extend([2, 1])
    solver._qhead = 2
    solver._reason[2] = 0
    solver._reason[1] = 1
    violations = check_solver_invariants(solver)
    assert "implication-cycle" in kinds_of(violations)
    assert any("antecedent" in v.message for v in violations)


def test_reason_without_implied_literal_caught():
    solver = reference_with([[2, 3], [1, -2]])
    solver._assign[1] = 1
    solver._trail.append(1)
    solver._qhead = 1
    solver._reason[1] = 0  # clause (2, 3) does not contain literal 1
    assert "reason-corrupt" in kinds_of(check_solver_invariants(solver))


def test_missed_unit_propagation_caught():
    # Watched literal 1 false at quiescence with the clause unsatisfied:
    # the propagator should have enqueued 2.
    solver = reference_with([[1, 2]])
    solver._assign[1] = -1
    solver._trail.append(-1)
    solver._qhead = 1
    violations = check_solver_invariants(solver)
    assert "watch-falsified" in kinds_of(violations)
    assert "missed unit propagation" in violations[0].message


def test_missed_conflict_caught():
    solver = reference_with([[1, 2]])
    solver._assign[1] = -1
    solver._assign[2] = -1
    solver._trail.extend([-1, -2])
    solver._qhead = 2
    violations = check_solver_invariants(solver)
    assert any("missed conflict" in v.message for v in violations)


def test_semantic_watch_check_waits_for_quiescence():
    # Same falsified watch, but qhead < len(trail): propagation is still
    # in flight, so the sanitizer must not cry wolf.
    solver = reference_with([[1, 2]])
    solver._assign[1] = -1
    solver._trail.append(-1)
    solver._qhead = 0
    assert check_solver_invariants(solver) == []


def test_solve_raises_on_corrupted_state_when_armed():
    solver = reference_with([[1, 2, 3], [-1, 2], [-2, -3], [3, -2, 1]])
    solver.check_invariants = True
    solver._watches[-1].clear()  # clause 0 no longer watched at literal 1
    with pytest.raises(SolverStateError):
        solver.solve()
