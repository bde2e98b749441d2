"""Differential test of :meth:`repro.sat.solver.Solver.add_clauses`.

``add_clauses`` stores a plain clause without ``add_clause``'s per-literal
loop (the solver's "Clause intake" docstring section).  The shortcut must
leave exactly the state the loop would.  This test keeps that loop — the
solver's clause intake as it stood before the shortcut — as
:func:`reference_add_clause`, feeds the same seeded batches to a solver
through ``add_clauses`` and to a second solver through the reference, and
requires equal state after every batch: stored clauses, watch lists (key
and list order included), trail, assignment and every other per-variable
array, ``num_vars``, the UNSAT flag, the propagation count, and the same
``ValueError`` for a literal 0 (with the same partial effects before it).

The batches mix tuples and lists; units, duplicate literals and
tautologies; a 0 at any position; fresh variables past ``num_vars``
(inside a tautology too); literals fixed at level 0 by earlier units; and
``bool`` literals.  Solves between batches add learned clauses and level-0
units from the search.
"""

from typing import List, Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sat.solver import _NO_ENTRY, Solver

FAST = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _grow(solver: Solver, var: int) -> None:
    """Grow the per-variable arrays one variable at a time."""
    while solver.num_vars < var:
        solver.num_vars += 1
        solver._assign.append(0)
        solver._level.append(0)
        solver._reason.append(None)
        solver._activity.append(0.0)
        solver._phase.append(0)
        solver._heap_activity.append(_NO_ENTRY)
        solver._seen.append(False)


def reference_add_clause(solver: Solver, literals) -> None:
    """The per-literal intake loop every clause used to take."""
    assign, levels = solver._assign, solver._level
    num_vars = solver.num_vars
    simplified: List[int] = []
    seen = set()
    satisfied = False
    for lit in literals:
        lit = int(lit)
        if lit == 0:
            raise ValueError("literal 0 is not allowed")
        if -lit in seen:
            return  # tautology, skip
        if lit in seen:
            continue
        seen.add(lit)
        var = lit if lit > 0 else -lit
        if var > num_vars:
            _grow(solver, var)
            num_vars = var
        value = assign[var]
        if value != 0 and levels[var] == 0:
            if (value if lit > 0 else -value) == 1:
                satisfied = True
            continue
        simplified.append(lit)
    if satisfied:
        return
    if not simplified:
        solver._unsat = True
        return
    if len(simplified) == 1:
        if not solver._enqueue(simplified[0], None):
            solver._unsat = True
        elif solver._propagate() is not None:
            solver._unsat = True
        return
    index = len(solver.clauses)
    solver.clauses.append(simplified)
    for lit in (-simplified[0], -simplified[1]):
        solver._watches.setdefault(lit, []).append(index)


def state(solver: Solver) -> str:
    """Everything clause intake can touch; ``repr`` tells ``True`` from ``1``."""
    return repr((
        solver.num_vars, solver.clauses, list(solver._watches.items()),
        solver._trail, solver._trail_lim, solver._qhead, solver._assign,
        solver._level, solver._reason, solver._activity, solver._phase,
        solver._heap_activity, solver._seen, solver._unsat,
        solver.stats.propagations,
    ))


def apply(solver: Solver, batch, *, reference: bool) -> Optional[str]:
    """Add ``batch``; returns the ``ValueError`` message, if one is raised."""
    try:
        if reference:
            for clause in batch:
                reference_add_clause(solver, clause)
        else:
            solver.add_clauses(batch)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def operations(draw):
    """Batches of clauses, with solves between some of them."""
    top = draw(st.integers(min_value=2, max_value=10))

    def literal():
        roll = draw(st.integers(min_value=0, max_value=24))
        if roll == 0:
            return 0
        if roll == 1:
            return draw(st.booleans())
        # Up to four variables past the batch's range: fresh variables.
        var = draw(st.integers(min_value=1, max_value=top + 4))
        return var if draw(st.booleans()) else -var

    def clause():
        shape = draw(st.integers(min_value=0, max_value=9))
        if shape == 0:
            lits = [literal()]  # unit: fixes a variable at level 0
        elif shape == 1:
            var = draw(st.integers(min_value=1, max_value=top + 8))
            lits = [literal(), var, literal(), -var]  # tautology, maybe fresh
            lits = draw(st.permutations(lits))
        else:
            lits = [literal() for _ in range(draw(st.integers(1, 5)))]
        return tuple(lits) if draw(st.booleans()) else list(lits)

    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        ops.append(("add", [clause() for _ in range(draw(st.integers(1, 12)))]))
        if draw(st.integers(min_value=0, max_value=2)) == 0:
            ops.append(("solve", draw(st.lists(
                st.integers(min_value=1, max_value=top).map(lambda v: v * (-1) ** v),
                max_size=2,
            ))))
    return ops


@FAST
@given(operations())
def test_add_clauses_matches_the_reference_loop(ops):
    fast, reference = Solver(), Solver()
    for op in ops:
        if op[0] == "add":
            raised = apply(fast, op[1], reference=False)
            assert raised == apply(reference, op[1], reference=True)
            if raised is not None:
                assert raised == "literal 0 is not allowed"
        else:
            assert fast.solve(assumptions=op[1]) == reference.solve(assumptions=op[1])
        assert state(fast) == state(reference)


@pytest.mark.parametrize("batch", [
    [(1, 2), [2, 3], (3, -1, 4)],                 # plain tuples and lists
    [(5,), (1, 5), [-5, 2, 3]],                   # literal fixed at level 0
    [(1, 1, 2), [3, -3], (4, 9, -9)],             # duplicate, tautologies
    [(2, 7, -7, 12)],                             # fresh variable in a tautology
    [(True, 2), [3, False]],                      # bool literals, bool 0
    [(1, 2), (6, 0), (3, 4)],                     # 0 after a fresh variable
    [(0, 2)], [[2, 0, 3]], [(1, 2, 0)],           # 0 first, middle, last
    [(-1,), (1,), (2, 3)],                        # contradiction: UNSAT flag
    [(2, 1), (-1,), (1, 3)],                      # clause satisfied at level 0
])
def test_named_intake_cases(batch):
    fast, reference = Solver(), Solver()
    assert apply(fast, batch, reference=False) == apply(reference, batch, reference=True)
    assert state(fast) == state(reference)


def test_plain_clauses_skip_the_loop():
    """Only clauses the loop would keep whole bypass ``add_clause``."""
    solver = Solver()
    looped = []
    original = solver.add_clause

    def spy(clause):
        looped.append(clause)
        original(clause)

    solver.add_clause = spy
    plain = [(1, 2), [3, -4, 5], (-6, 2)]
    solver.add_clauses(plain)
    assert looped == []
    other = [(7,), (1, 1), (2, -2), (True, 3), (4, 7), iter([8, 9])]
    solver.add_clauses(other)
    assert looped == other
