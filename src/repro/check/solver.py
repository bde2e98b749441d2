"""CNF well-formedness checks and CDCL solver-state sanitizers.

Two layers:

* :func:`check_cnf` — formula-level checks on a :class:`repro.sat.cnf.CNF`
  (or any clause iterable): zero literals, out-of-range variables,
  duplicate literals, tautologies, empty clauses.  These are the malformed
  inputs the encoders must never emit; ``add_clause`` rejects some of them
  but nothing guards hand-built or deserialized clause lists.

* :func:`check_solver_invariants` — a state sanitizer for both CDCL
  backends (:class:`repro.sat.solver.Solver` and
  :class:`repro.sat.arena.ArenaSolver`, distinguished by duck-typing on
  ``_arena``).  It audits the invariants the search relies on but never
  re-checks: watch-list structure (every stored clause watched exactly
  once at each of its two lead literals, nowhere else), trail/assignment/
  decision-level consistency, and the implication graph (every implied
  variable's reason clause contains its literal, with every antecedent
  falsified *earlier* on the trail — which makes the graph acyclic by
  construction).  On the reference backend it also audits the order heap's
  dedupe state: every live current entry recorded in ``_heap_activity`` is
  in the heap, and no entry appears twice.

Both solvers call the sanitizer at every decision point when constructed
under ``REPRO_CHECK_SOLVER=1`` (one attribute test per decision when off);
the solver property tests run a pass with it enabled.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class Violation:
    """One invariant violation: a stable kind slug plus the evidence."""

    kind: str
    message: str

    def render(self) -> str:
        return f"[{self.kind}] {self.message}"


class SolverStateError(AssertionError):
    """Solver or CNF state failed an invariant audit.

    Subclasses :class:`AssertionError` so property tests fail loudly and
    existing ``except Exception`` telemetry paths still record it.
    """

    def __init__(self, context: str, violations: Sequence[Violation]) -> None:
        self.context = context
        self.violations = list(violations)
        detail = "; ".join(v.render() for v in self.violations)
        super().__init__(f"{context}: {detail}")


# --------------------------------------------------------------------- #
# CNF well-formedness
# --------------------------------------------------------------------- #
def check_cnf(
    formula: Union[Iterable[Sequence[int]], "object"],
    *,
    num_vars: Optional[int] = None,
) -> List[Violation]:
    """Audit a formula; returns all violations (empty list when clean).

    ``formula`` may be a :class:`repro.sat.cnf.CNF` (its ``num_vars`` is
    used unless overridden) or any iterable of clauses.
    """
    clauses = getattr(formula, "clauses", formula)
    if num_vars is None:
        num_vars = getattr(formula, "num_vars", None)
    violations: List[Violation] = []
    for index, clause in enumerate(clauses):
        clause = tuple(clause)
        if not clause:
            violations.append(
                Violation("empty-clause", f"clause #{index} is empty")
            )
            continue
        seen = set()
        for lit in clause:
            if lit == 0:
                violations.append(
                    Violation("zero-literal", f"clause #{index} {clause} contains literal 0")
                )
                continue
            var = abs(lit)
            if num_vars is not None and var > num_vars:
                violations.append(
                    Violation(
                        "out-of-range",
                        f"clause #{index} {clause} uses variable {var} > num_vars={num_vars}",
                    )
                )
            if lit in seen:
                violations.append(
                    Violation(
                        "duplicate-literal",
                        f"clause #{index} {clause} repeats literal {lit}",
                    )
                )
            elif -lit in seen:
                violations.append(
                    Violation(
                        "tautology",
                        f"clause #{index} {clause} contains both {lit} and {-lit}",
                    )
                )
            seen.add(lit)
    return violations


def assert_cnf_ok(
    formula,
    *,
    num_vars: Optional[int] = None,
    context: str = "CNF",
) -> None:
    """Raise :class:`SolverStateError` if :func:`check_cnf` finds anything."""
    violations = check_cnf(formula, num_vars=num_vars)
    if violations:
        raise SolverStateError(context, violations)


# --------------------------------------------------------------------- #
# solver-state sanitizer
# --------------------------------------------------------------------- #
def _lit_value(assign: List[int], lit: int) -> int:
    value = assign[lit if lit > 0 else -lit]
    if value == 0:
        return 0
    return value if lit > 0 else -value


def _arena_clauses(solver, violations: List[Violation]) -> Dict[int, Tuple[int, ...]]:
    """Walk the arena; returns ``ref -> literals`` for every stored clause."""
    arena = solver._arena
    clauses: Dict[int, Tuple[int, ...]] = {}
    ref = 0
    while ref < len(arena):
        length = arena[ref]
        if length < 2 or ref + 1 + length > len(arena):
            violations.append(
                Violation(
                    "arena-corrupt",
                    f"arena[{ref}] declares clause length {length} "
                    f"(arena size {len(arena)}); walk aborted",
                )
            )
            return clauses
        clauses[ref] = tuple(arena[ref + 1: ref + 1 + length])
        ref += 1 + length
    return clauses


def _enc_watch(lit: int) -> int:
    """Watch-list index of watched literal ``lit`` (visit when it is falsified)."""
    return (lit << 1 | 1) if lit > 0 else (-lit << 1)


def _order_heap_violations(solver) -> List[Violation]:
    """Audit the reference backend's order-heap dedupe state.

    ``_heap_activity[var]`` records the activity of ``var``'s live current
    heap entry (negative: none).  Pushes are skipped on the strength of that
    record, so a recorded entry missing from the heap would starve the
    variable, and a duplicate entry means a push bypassed the rule.
    """
    violations: List[Violation] = []
    counts: Dict[Tuple[float, int], int] = {}
    for entry in solver._order_heap:
        counts[entry] = counts.get(entry, 0) + 1
    for (neg_activity, var), count in counts.items():
        if count > 1:
            violations.append(
                Violation(
                    "heap-duplicate",
                    f"order heap holds entry ({neg_activity}, {var}) {count}x",
                )
            )
    for var, activity in enumerate(solver._heap_activity):
        if activity >= 0 and (-activity, var) not in counts:
            violations.append(
                Violation(
                    "heap-missing",
                    f"variable {var} records a live heap entry at activity "
                    f"{activity} but the order heap has no such entry",
                )
            )
    return violations


def check_solver_invariants(solver) -> List[Violation]:
    """Audit a CDCL backend's internal state; returns all violations.

    Works on both backends.  Structural checks (watch lists, trail, levels,
    implication graph) run unconditionally; the *semantic* watch invariant
    (a falsified watched literal implies the clause is satisfied by its
    other watch) only holds once propagation has quiesced, so it is gated
    on ``qhead == len(trail)``.
    """
    violations: List[Violation] = []
    is_arena = hasattr(solver, "_arena")
    assign: List[int] = solver._assign
    levels: List[int] = solver._level
    trail: List[int] = solver._trail
    trail_lim: List[int] = solver._trail_lim
    num_vars: int = solver.num_vars

    # ---- clause database + watch structure ---------------------------- #
    clause_map: Dict[int, Tuple[int, ...]]
    if is_arena:
        clause_map = _arena_clauses(solver, violations)
        watch_lists = solver._watches
        occurrences: Dict[Tuple[int, int], int] = {}
        for widx, watching in enumerate(watch_lists):
            if len(watching) % 2:
                violations.append(
                    Violation(
                        "watch-corrupt",
                        f"watch list {widx} has odd length {len(watching)} "
                        "(refs and blockers must pair up)",
                    )
                )
                continue
            for i in range(0, len(watching), 2):
                ref, blocker = watching[i], watching[i + 1]
                if ref not in clause_map:
                    violations.append(
                        Violation(
                            "watch-corrupt",
                            f"watch list {widx} holds ref {ref} which is not "
                            "a clause boundary in the arena",
                        )
                    )
                    continue
                if blocker not in clause_map[ref]:
                    violations.append(
                        Violation(
                            "watch-corrupt",
                            f"watch list {widx}: blocker {blocker} for clause "
                            f"@{ref} is not one of its literals {clause_map[ref]}",
                        )
                    )
                occurrences[(widx, ref)] = occurrences.get((widx, ref), 0) + 1
        expected = set()
        for ref, literals in clause_map.items():
            for watched in literals[:2]:
                widx = _enc_watch(watched)
                expected.add((widx, ref))
                count = occurrences.get((widx, ref), 0)
                if count != 1:
                    violations.append(
                        Violation(
                            "watch-missing" if count == 0 else "watch-duplicate",
                            f"clause @{ref} {literals} watched {count}x at "
                            f"literal {watched} (watch list {widx}), expected "
                            "exactly once",
                        )
                    )
        for (widx, ref), count in occurrences.items():
            if (widx, ref) not in expected and ref in clause_map:
                violations.append(
                    Violation(
                        "watch-stray",
                        f"clause @{ref} {clause_map[ref]} appears {count}x in "
                        f"watch list {widx} but neither of its lead literals "
                        "maps there",
                    )
                )
    else:
        clause_map = {
            index: tuple(clause) for index, clause in enumerate(solver.clauses)
        }
        occurrences = {}
        for key, watching in solver._watches.items():
            for ci in watching:
                if ci not in clause_map:
                    violations.append(
                        Violation(
                            "watch-corrupt",
                            f"watch list for {key} holds clause index {ci} "
                            f"outside the database (size {len(clause_map)})",
                        )
                    )
                    continue
                occurrences[(key, ci)] = occurrences.get((key, ci), 0) + 1
        expected = set()
        for ci, literals in clause_map.items():
            if len(literals) < 2:
                violations.append(
                    Violation(
                        "clause-corrupt",
                        f"stored clause #{ci} {literals} has fewer than two "
                        "literals (units are never stored)",
                    )
                )
                continue
            for watched in literals[:2]:
                key = -watched
                expected.add((key, ci))
                count = occurrences.get((key, ci), 0)
                if count != 1:
                    violations.append(
                        Violation(
                            "watch-missing" if count == 0 else "watch-duplicate",
                            f"clause #{ci} {literals} watched {count}x at "
                            f"literal {watched}, expected exactly once",
                        )
                    )
        for (key, ci), count in occurrences.items():
            if (key, ci) not in expected and ci in clause_map:
                violations.append(
                    Violation(
                        "watch-stray",
                        f"clause #{ci} {clause_map[ci]} appears {count}x in the "
                        f"watch list for {key} but neither watched literal "
                        "maps there",
                    )
                )

        violations.extend(_order_heap_violations(solver))

    for where, literals in clause_map.items():
        for lit in literals:
            if lit == 0 or abs(lit) > num_vars:
                violations.append(
                    Violation(
                        "clause-corrupt",
                        f"stored clause {where} {literals} holds invalid "
                        f"literal {lit} (num_vars={num_vars})",
                    )
                )

    # ---- trail / assignment / level consistency ----------------------- #
    qhead = solver._qhead
    if not 0 <= qhead <= len(trail):
        violations.append(
            Violation(
                "trail-corrupt",
                f"qhead {qhead} outside the trail (length {len(trail)})",
            )
        )
    previous = 0
    for level_index, boundary in enumerate(trail_lim):
        if boundary < previous or boundary > len(trail):
            violations.append(
                Violation(
                    "trail-corrupt",
                    f"trail_lim[{level_index}] = {boundary} is not monotone "
                    f"within the trail (length {len(trail)})",
                )
            )
        previous = max(previous, boundary)

    position: Dict[int, int] = {}
    for pos, lit in enumerate(trail):
        var = abs(lit)
        if lit == 0 or var > num_vars:
            violations.append(
                Violation("trail-corrupt", f"trail[{pos}] holds invalid literal {lit}")
            )
            continue
        if var in position:
            violations.append(
                Violation(
                    "trail-corrupt",
                    f"variable {var} appears twice on the trail "
                    f"(positions {position[var]} and {pos})",
                )
            )
            continue
        position[var] = pos
        if _lit_value(assign, lit) != 1:
            violations.append(
                Violation(
                    "assign-mismatch",
                    f"trail literal {lit} (position {pos}) is not assigned true",
                )
            )
        expected_level = bisect_right(trail_lim, pos)
        if levels[var] != expected_level:
            violations.append(
                Violation(
                    "level-mismatch",
                    f"variable {var} at trail position {pos} has recorded "
                    f"level {levels[var]} but sits in level {expected_level}",
                )
            )
    for var in range(1, num_vars + 1):
        if assign[var] != 0 and var not in position:
            violations.append(
                Violation(
                    "assign-mismatch",
                    f"variable {var} is assigned {assign[var]:+d} but is not "
                    "on the trail",
                )
            )

    # ---- implication graph -------------------------------------------- #
    reasons = solver._reason
    no_reason = -1 if is_arena else None
    for pos, lit in enumerate(trail):
        var = abs(lit)
        reason = reasons[var] if var < len(reasons) else no_reason
        if reason == no_reason or reason is None:
            continue
        literals = clause_map.get(reason)
        if literals is None:
            violations.append(
                Violation(
                    "reason-corrupt",
                    f"variable {var} cites reason {reason} which is not a "
                    "stored clause",
                )
            )
            continue
        if lit not in literals:
            violations.append(
                Violation(
                    "reason-corrupt",
                    f"reason clause {reason} {literals} does not contain its "
                    f"implied literal {lit}",
                )
            )
            continue
        for other in literals:
            if other == lit:
                continue
            if _lit_value(assign, other) != -1:
                violations.append(
                    Violation(
                        "reason-corrupt",
                        f"antecedent {other} of implied literal {lit} "
                        f"(reason {reason} {literals}) is not falsified",
                    )
                )
                continue
            other_pos = position.get(abs(other))
            if other_pos is None or other_pos >= pos:
                # An antecedent at or after its consequence means the
                # implication graph has a cycle (or cites the future).
                violations.append(
                    Violation(
                        "implication-cycle",
                        f"antecedent {other} of implied literal {lit} "
                        f"(reason {reason}) is not assigned earlier on the "
                        f"trail (positions {other_pos} vs {pos})",
                    )
                )

    # ---- semantic watch invariant (quiescent states only) -------------- #
    if qhead == len(trail):
        for where, literals in clause_map.items():
            if len(literals) < 2:
                continue
            first, second = literals[0], literals[1]
            v1, v2 = _lit_value(assign, first), _lit_value(assign, second)
            if v1 != -1 and v2 != -1:
                continue
            if 1 in (v1, v2):
                continue
            # The arena backend's blocker skip legitimately leaves a stale
            # false watch when the clause is satisfied by a *tail* literal
            # (a blocker-true visit never renormalizes the clause); the
            # reference backend always promotes a true tail literal into
            # the watch pair, so for it a false watch demands a true watch.
            if is_arena and any(
                _lit_value(assign, other) == 1 for other in literals[2:]
            ):
                continue
            if v1 == -1 and v2 == -1:
                message = (
                    f"clause {where} {literals}: both watched literals "
                    f"{first}, {second} are false after propagation "
                    "quiesced and no other literal is true (missed conflict)"
                )
            else:
                message = (
                    f"clause {where} {literals}: watched literal "
                    f"{first if v1 == -1 else second} is false with the "
                    "clause unsatisfied (missed unit propagation)"
                )
            violations.append(Violation("watch-falsified", message))

    return violations


def assert_solver_invariants(solver, *, context: Optional[str] = None) -> None:
    """Raise :class:`SolverStateError` if the sanitizer finds anything."""
    violations = check_solver_invariants(solver)
    if violations:
        if context is None:
            context = type(solver).__name__
        raise SolverStateError(context, violations)
