"""A CDCL SAT solver.

This is a from-scratch conflict-driven clause-learning solver in the MiniSAT
tradition: two-watched-literal propagation, first-UIP conflict analysis,
VSIDS-style variable activities, phase saving, Luby restarts and
assumption-based incremental solving.  It is deliberately pure Python — the
reproduction is not allowed external solver binaries — so the attacks built
on top keep their benchmark circuits modest in size.

The public surface is small:

``add_clause`` / ``add_clauses``
    Grow the clause database (incremental: clauses persist across calls;
    a literal 0 raises ``ValueError``).
``solve(assumptions=…, conflict_limit=…, time_limit=…)``
    Returns ``True`` (SAT), ``False`` (UNSAT under the assumptions) or
    ``None`` when a resource limit was hit.  An assumption 0 raises
    ``ValueError``.
``model()``
    The satisfying assignment of the most recent SAT answer.
``fixed_literals()``
    The literals fixed at decision level 0 (between solves, every
    assignment), or ``None`` once the clauses are unsatisfiable there.

Search identity
---------------
The search is a pure function of the calls made on the solver.  Its
decisions, propagations, conflicts, learned clauses (literal order
included), restarts, answers, models and DRUP proof steps are part of the
contract, pinned by ``tests/property/test_solver_golden.py``: the attack
outcomes, the campaign tables and the benchmark's work digest are all
computed from them.  So a speed-up here must not reorder anything the
search can observe — watch lists keep their order, the in-place literal
swaps inside clauses stay as they are, and the order heap yields the same
variable at every decision.  Blocker literals, binary-clause shortcuts and
an ``in_heap`` flag (which drops the re-push when only a *stale* entry is
left) each change the search, so adding one means re-pinning the golden
test on purpose.

The hot loops (``_propagate``, ``_backtrack``, ``_analyze``,
``_pick_branch_variable``, ``add_clause``, ``add_clauses``) are inlined by
hand: locals are bound once, literal values are read straight off
``_assign``, propagations are counted in a local, a watch list is rebuilt
only when one of its watches moves, and conflict analysis reuses one
``seen`` buffer.

Clause intake
-------------
The clause database, the watch lists (order included), the level-0 trail
and ``num_vars`` are search state too, so every clause enters them the way
``add_clause``'s loop defines: each literal read through ``int()``; a 0
raises; a tautology is skipped; duplicate literals and literals false at
level 0 are dropped; a clause true at level 0 is skipped; ``num_vars`` grows
to each new variable as the loop meets it; a unit is enqueued and
propagated at once; anything longer is stored and its first two literals
watched.  ``add_clauses`` — what ``SolveSession.sync`` calls — takes a
shortcut only where that loop would keep the clause whole: a tuple or list
of two or more ``int`` literals over distinct, unassigned variables (no 0,
no ``bool``) grows ``num_vars`` to its largest variable, then is stored and
watched directly.  Every other clause takes the loop.  Units are never
batched: each is enqueued and propagated in order, and the solver never
grows past the variables its clauses name.

Order heap
----------
Decisions come from a lazy-deletion binary heap of ``(-activity, var)``
entries.  An entry is *current* when its activity equals the variable's
activity; a pick pops entries until it meets a current entry of an
unassigned variable, re-pushing a stale entry of an unassigned variable at
its current activity.  A pick therefore only ever returns a variable
through a current entry, and a second copy of a live current entry cannot
change which variable is picked.  Every push follows one rule: skip it when
the variable already has a live current entry.  ``_heap_activity[var]``
records the activity of the variable's live current entry (``-1.0`` for
none — activities are never negative) and is cleared when that entry is
popped, so the heap never holds two copies of one entry.
"""

from __future__ import annotations

import heapq
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

#: ``_heap_activity`` value of a variable without a live current heap entry.
_NO_ENTRY = -1.0


@dataclass
class SolverStats:
    """Counters accumulated over the lifetime of a solver instance."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    restarts: int = 0
    solve_calls: int = 0


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence.

    Uses the classic MiniSAT formulation: find the finite subsequence that
    contains index ``i`` and the position within it.
    """
    x = i - 1  # 0-based index
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x = x % size
    return 1 << seq


class Solver:
    """Incremental CDCL SAT solver over integer (DIMACS-style) literals."""

    _UNASSIGNED = 0

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: List[List[int]] = []
        self._watches: Dict[int, List[int]] = {}
        self._assign: List[int] = [0]  # 1-indexed; 0 unassigned, +1 true, -1 false
        self._level: List[int] = [0]
        self._reason: List[Optional[int]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[int] = [0]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._order_heap: List = []
        # Activity of each variable's live current heap entry (module
        # docstring, "Order heap"); _NO_ENTRY when it has none.
        self._heap_activity: List[float] = [_NO_ENTRY]
        # Conflict-analysis marks, all False between _analyze calls.
        self._seen: List[bool] = [False]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._model: Dict[int, int] = {}
        self._unsat = False  # a top-level empty clause / contradiction exists
        self.stats = SolverStats()
        # Optional event-trace hooks (see repro.trace): the attached writer
        # and the conflict-sampling stride.  Checked only on the conflict and
        # restart branches — never on the propagation inner loop — so the
        # tracing-off cost is one attribute test per conflict.
        self.trace = None
        self.trace_stride = 1
        # Optional DRUP proof hook (see repro.check.certify): a ProofLogger
        # recording learned/deleted clauses so UNSAT answers are checkable
        # by an independent replayer.  Same cost model as tracing: one
        # attribute test per conflict when off.
        self.proof = None
        # Debug sanitizer (see repro.check.solver): audit watch lists, trail
        # and implication graph at every decision point.  Same cost model as
        # tracing: one attribute test per decision when off.
        self.check_invariants = os.environ.get("REPRO_CHECK_SOLVER", "") == "1"

    # ------------------------------------------------------------------ #
    # variable / clause management
    # ------------------------------------------------------------------ #
    def new_var(self) -> int:
        """Allocate a fresh variable and return its index."""
        self.num_vars += 1
        self._assign.append(0)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(0)
        self._heap_activity.append(_NO_ENTRY)
        self._seen.append(False)
        return self.num_vars

    def _ensure_var(self, var: int) -> None:
        while self.num_vars < var:
            self.new_var()

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause.  Must be called at decision level 0 (between solves)."""
        # One pass: drop duplicate literals and literals already false at
        # level 0, note a literal already true there.  Every literal is still
        # read (a later 0 raises, a later tautology skips the clause).
        assign, levels = self._assign, self._level
        num_vars = self.num_vars
        simplified = []
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
                self._ensure_var(var)
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
            self._unsat = True
            return
        if len(simplified) == 1:
            if not self._enqueue(simplified[0], None):
                self._unsat = True
            elif self._propagate() is not None:
                self._unsat = True
            return
        index = len(self.clauses)
        self.clauses.append(simplified)
        watches = self._watches
        for lit in (-simplified[0], -simplified[1]):
            watching = watches.get(lit)
            if watching is None:
                watches[lit] = [index]
            else:
                watching.append(index)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add many clauses, each exactly as :meth:`add_clause` would.

        A plain clause is stored and watched here without ``add_clause``'s
        per-literal loop; every other clause takes the loop (module
        docstring, "Clause intake").
        """
        add_clause, ensure_var = self.add_clause, self._ensure_var
        stored, watches, assign = self.clauses, self._watches, self._assign
        for clause in clauses:
            kind = type(clause)
            if (kind is tuple or kind is list) and len(clause) > 1:
                # A non-int literal, a repeated variable (duplicate literal
                # or tautology), a 0 or an assigned variable (fixed at level
                # 0 between solves) sends the clause to the loop.
                # ``variables`` starts with 0 so a literal 0 counts as
                # repeated.
                num_vars = self.num_vars
                top = 0
                variables = [0]
                for lit in clause:
                    if type(lit) is not int:
                        break
                    var = lit if lit > 0 else -lit
                    if var in variables:
                        break
                    variables.append(var)
                    if var > num_vars:
                        if var > top:
                            top = var
                    elif assign[var]:
                        break
                else:
                    if top:
                        ensure_var(top)
                    index = len(stored)
                    stored.append(list(clause))
                    watches.setdefault(-clause[0], []).append(index)
                    watches.setdefault(-clause[1], []).append(index)
                    continue
            add_clause(clause)

    def _watch(self, lit: int, clause_index: int) -> None:
        self._watches.setdefault(-lit, []).append(clause_index)

    # ------------------------------------------------------------------ #
    # assignment helpers (cold paths; the hot loops inline them)
    # ------------------------------------------------------------------ #
    def _value(self, lit: int) -> int:
        """+1 if lit is true, -1 if false, 0 if unassigned."""
        value = self._assign[abs(lit)]
        if value == 0:
            return 0
        return value if lit > 0 else -value

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        value = self._value(lit)
        if value == 1:
            return True
        if value == -1:
            return False
        var = abs(lit)
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        boundary = trail_lim[level]
        trail = self._trail
        assign, phase, reason = self._assign, self._phase, self._reason
        activity, heap_activity = self._activity, self._heap_activity
        heap, heappush = self._order_heap, heapq.heappush
        for lit in reversed(trail[boundary:]):
            var = lit if lit > 0 else -lit
            phase[var] = assign[var]
            assign[var] = 0
            reason[var] = None
            current = activity[var]
            if heap_activity[var] != current:
                heap_activity[var] = current
                heappush(heap, (-current, var))
        del trail[boundary:]
        del trail_lim[level:]
        self._qhead = len(trail)

    # ------------------------------------------------------------------ #
    # propagation
    # ------------------------------------------------------------------ #
    def _propagate(self) -> Optional[int]:
        """Unit propagation.  Returns a conflicting clause index or None."""
        trail = self._trail
        clauses = self.clauses
        watches = self._watches
        assign, levels, reasons = self._assign, self._level, self._reason
        current_level = len(self._trail_lim)
        qhead = self._qhead
        propagations = 0
        conflict: Optional[int] = None
        while qhead < len(trail):  # hot-loop
            lit = trail[qhead]
            qhead += 1
            propagations += 1
            watching = watches.get(lit)
            if not watching:
                continue
            # Rebuilt only once a watch moves away; until then the list
            # is read in place and left untouched.
            new_watching: Optional[List[int]] = None
            false_lit = -lit
            i = 0
            n = len(watching)
            while i < n:
                clause_index = watching[i]
                i += 1
                clause = clauses[clause_index]
                # Normalise so the falsified watched literal is clause[1].
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                value = assign[first] if first > 0 else -assign[-first]
                if value == 1:
                    if new_watching is not None:
                        new_watching.append(clause_index)
                    continue
                # Look for a replacement watch.
                for k in range(2, len(clause)):
                    other = clause[k]
                    if (assign[other] if other > 0 else -assign[-other]) != -1:
                        clause[1] = other
                        clause[k] = false_lit
                        moved = watches.get(-other)
                        if moved is None:
                            watches[-other] = [clause_index]
                        else:
                            moved.append(clause_index)
                        if new_watching is None:
                            new_watching = watching[:i - 1]
                        break
                else:
                    # Clause is unit or conflicting.
                    if new_watching is not None:
                        new_watching.append(clause_index)
                    if value == -1:
                        conflict = clause_index
                        # keep remaining watches
                        if new_watching is not None:
                            new_watching.extend(watching[i:])
                        break
                    var = first if first > 0 else -first
                    assign[var] = 1 if first > 0 else -1
                    levels[var] = current_level
                    reasons[var] = clause_index
                    trail.append(first)
            if new_watching is not None:
                watches[lit] = new_watching
            if conflict is not None:
                break
        self._qhead = qhead
        self.stats.propagations += propagations
        return conflict

    # ------------------------------------------------------------------ #
    # conflict analysis
    # ------------------------------------------------------------------ #
    def _rescale_activities(self) -> None:
        activity = self._activity
        for v in range(1, self.num_vars + 1):
            activity[v] *= 1e-100
        self._var_inc *= 1e-100

    def _analyze(self, conflict_index: int) -> (List[int], int):
        """First-UIP conflict analysis.

        Returns the learned clause (asserting literal first) and the level to
        backtrack to.
        """
        clauses, trail = self.clauses, self._trail
        assign, levels, reasons = self._assign, self._level, self._reason
        activity, seen, var_inc = self._activity, self._seen, self._var_inc
        learned: List[int] = [0]  # placeholder for the asserting literal
        counter = 0
        lit = None
        clause = clauses[conflict_index]
        index = len(trail) - 1
        current_level = len(self._trail_lim)

        while True:
            for reason_lit in clause:
                if reason_lit == lit:
                    continue
                var = reason_lit if reason_lit > 0 else -reason_lit
                if not seen[var] and levels[var] > 0:
                    seen[var] = True
                    # VSIDS bump.
                    current = activity[var] + var_inc
                    activity[var] = current
                    if assign[var] == 0:
                        self._heap_push(var)
                    if current > 1e100:
                        self._rescale_activities()
                        var_inc = self._var_inc
                    if levels[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(reason_lit)
            # find next literal to expand (most recent on trail at current level)
            lit = trail[index]
            while not seen[lit if lit > 0 else -lit]:
                index -= 1
                lit = trail[index]
            var = lit if lit > 0 else -lit
            seen[var] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            reason_index = reasons[var]
            assert reason_index is not None, "decision reached before UIP"
            clause = clauses[reason_index]
        learned[0] = -lit
        # Every current-level mark was cleared as the walk expanded it; the
        # lower-level marks are exactly the learned tail.
        for other in learned[1:]:
            seen[other if other > 0 else -other] = False

        if len(learned) == 1:
            return learned, 0
        # Backtrack level: highest level among the non-asserting literals.
        max_index = 1
        max_level = levels[abs(learned[1])]
        for k in range(2, len(learned)):
            lvl = levels[abs(learned[k])]
            if lvl > max_level:
                max_level = lvl
                max_index = k
        learned[1], learned[max_index] = learned[max_index], learned[1]
        return learned, max_level

    # ------------------------------------------------------------------ #
    # decisions
    # ------------------------------------------------------------------ #
    def _heap_push(self, var: int) -> None:
        """Push ``var`` at its current activity unless that entry is live."""
        current = self._activity[var]
        if self._heap_activity[var] != current:
            self._heap_activity[var] = current
            heapq.heappush(self._order_heap, (-current, var))

    def _pick_branch_variable(self) -> Optional[int]:
        """Highest-activity unassigned variable (lazy-deletion heap).

        Heap entries can be stale (old activity, or the variable got assigned
        since being pushed); stale entries are skipped or re-pushed with the
        current activity.  Variables never pushed (activity 0) are covered by
        the fallback linear scan, which also refills the heap.
        """
        heap, heappop = self._order_heap, heapq.heappop
        assign, activity = self._assign, self._activity
        heap_activity = self._heap_activity
        while heap:
            neg_activity, var = heappop(heap)
            if heap_activity[var] == -neg_activity:
                heap_activity[var] = _NO_ENTRY  # its live current entry left
            if assign[var] != 0:
                continue
            if -neg_activity != activity[var]:
                self._heap_push(var)
                continue
            return var
        # Heap exhausted: rebuild it from all unassigned variables.
        unassigned = [v for v in range(1, self.num_vars + 1) if assign[v] == 0]
        if not unassigned:
            return None
        for var in unassigned:
            self._heap_push(var)
        return max(unassigned, key=activity.__getitem__)

    # ------------------------------------------------------------------ #
    # main search
    # ------------------------------------------------------------------ #
    def solve(
        self,
        assumptions: Optional[Sequence[int]] = None,
        *,
        conflict_limit: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> Optional[bool]:
        """Run the CDCL search.

        Parameters
        ----------
        assumptions:
            Literals assumed true for this call only (incremental interface).
        conflict_limit:
            Abort with ``None`` after this many conflicts.
        time_limit:
            Abort with ``None`` after this many seconds of wall-clock time.
        """
        assumptions = list(assumptions or [])
        if 0 in assumptions:
            raise ValueError("literal 0 is not allowed")
        stats = self.stats
        stats.solve_calls += 1
        if self._unsat:
            return False
        for lit in assumptions:
            self._ensure_var(abs(lit))
        num_assumptions = len(assumptions)

        self._backtrack(0)
        if self._propagate() is not None:
            self._unsat = True
            return False

        propagate, backtrack = self._propagate, self._backtrack
        trail, trail_lim = self._trail, self._trail_lim
        assign, levels, reasons = self._assign, self._level, self._reason
        deadline = time.monotonic() + time_limit if time_limit is not None else None
        conflicts_this_call = 0
        restart_index = 1
        restart_budget = 32 * _luby(restart_index)
        conflicts_since_restart = 0

        while True:
            conflict = propagate()
            if conflict is not None:
                stats.conflicts += 1
                conflicts_this_call += 1
                conflicts_since_restart += 1
                if not trail_lim:
                    self._unsat = True
                    return False
                if len(trail_lim) <= num_assumptions:
                    # Conflict depends only on assumptions: UNSAT under them.
                    backtrack(0)
                    return False
                learned, back_level = self._analyze(conflict)
                if self.proof is not None:
                    # Learned clauses are RUP over the database that produced
                    # the conflict, which is what the DRUP checker replays.
                    self.proof.learned(learned)
                if self.trace is not None and (
                    stats.conflicts % self.trace_stride == 0
                ):
                    # LBD (distinct decision levels in the learned clause) is
                    # only meaningful before backtracking clears the levels.
                    self.trace.emit(
                        "conflict",
                        conflicts=stats.conflicts,
                        decisions=stats.decisions,
                        propagations=stats.propagations,
                        learned=stats.learned_clauses,
                        level=len(trail_lim),
                        lbd=len({levels[abs(lit)] for lit in learned}),
                        learned_len=len(learned),
                    )
                back_level = max(back_level, num_assumptions)
                backtrack(back_level)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self._unsat = True
                        return False
                else:
                    index = len(self.clauses)
                    self.clauses.append(learned)
                    stats.learned_clauses += 1
                    self._watch(learned[0], index)
                    self._watch(learned[1], index)
                    self._enqueue(learned[0], index)
                self._var_inc /= self._var_decay

                if conflict_limit is not None and conflicts_this_call >= conflict_limit:
                    backtrack(0)
                    return None
                if deadline is not None and time.monotonic() > deadline:
                    backtrack(0)
                    return None
                if conflicts_since_restart >= restart_budget:
                    stats.restarts += 1
                    if self.trace is not None:
                        self.trace.emit(
                            "restart",
                            restarts=stats.restarts,
                            conflicts=stats.conflicts,
                        )
                    restart_index += 1
                    restart_budget = 32 * _luby(restart_index)
                    conflicts_since_restart = 0
                    backtrack(min(num_assumptions, len(trail_lim)))
                continue

            # No conflict: propagation quiesced — audit the solver state
            # before committing to the next decision (debug flag only).
            if self.check_invariants:
                self._run_invariant_checks()

            # Place assumptions first, then decide.
            if len(trail_lim) < num_assumptions:
                lit = assumptions[len(trail_lim)]
                value = self._value(lit)
                if value == 1:
                    # Already satisfied: open a dummy level to keep indices aligned.
                    trail_lim.append(len(trail))
                    continue
                if value == -1:
                    backtrack(0)
                    return False
                trail_lim.append(len(trail))
                self._enqueue(lit, None)
                continue

            var = self._pick_branch_variable()
            if var is None:
                # All variables assigned: SAT.
                self._model = {
                    v: (1 if assign[v] == 1 else 0)
                    for v in range(1, self.num_vars + 1)
                }
                backtrack(0)
                return True
            stats.decisions += 1
            if deadline is not None and stats.decisions % 512 == 0 and time.monotonic() > deadline:
                backtrack(0)
                return None
            # Decide: the picked variable is unassigned, so enqueue directly.
            level = len(trail_lim)
            trail_lim.append(len(trail))
            lit = var if self._phase[var] == 1 else -var
            assign[var] = 1 if lit > 0 else -1
            levels[var] = level + 1
            reasons[var] = None
            trail.append(lit)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def model(self) -> Dict[int, int]:
        """The satisfying assignment (var -> 0/1) of the last SAT answer."""
        return dict(self._model)

    def fixed_literals(self) -> Optional[List[int]]:
        """The literals fixed at decision level 0, in the order they were fixed.

        ``None`` once the clauses are unsatisfiable at level 0.  Between
        solves the trail holds level 0 only: every clause added since has
        been propagated (module docstring, "Clause intake").
        """
        if self._unsat:
            return None
        trail = self._trail
        return trail[: self._trail_lim[0]] if self._trail_lim else list(trail)

    def model_literal(self, lit: int) -> int:
        """Value (0/1) of a literal under the last model."""
        value = self._model.get(abs(lit), 0)
        return value if lit > 0 else 1 - value

    def _run_invariant_checks(self) -> None:
        """Debug-flag hook: raise SolverStateError on any broken invariant."""
        from repro.check.solver import assert_solver_invariants

        assert_solver_invariants(self)
