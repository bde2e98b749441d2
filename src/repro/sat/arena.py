"""Arena-backed CDCL solver: the tuned ``"cdcl-arena"`` session backend.

Same algorithm as :class:`repro.sat.solver.Solver` — two-watched-literal
propagation, first-UIP learning, VSIDS activities, phase saving, Luby
restarts, assumption-based incremental solving — but with the clause
database flattened into a single int-list *arena* and the watcher lists
stored in a flat list indexed by encoded literal:

* a clause lives at an integer offset ``ref``: ``arena[ref]`` is its length
  and ``arena[ref+1 : ref+1+len]`` its literals (the two watched literals
  always sit at ``ref+1`` / ``ref+2``);
* ``watches[enc(lit)]`` (``enc(lit) = var<<1 | sign``) lists the refs to
  visit when ``lit`` becomes true, replacing the reference solver's
  dict-of-lists keyed by literal;
* the propagation inner loop is fully inlined — literal values are read
  straight off the assignment array instead of through ``_value()`` /
  ``_enqueue()`` / ``_watch()`` method calls.

Blocker literals, the binary-clause fast path and the ``_in_heap`` flag
change the propagation order and the decision heap, so this backend's
search differs from the reference solver's.  It stays answer-identical:
both solvers are sound and complete, so they return the same SAT/UNSAT
verdict on every formula (models and resource-limited ``None`` answers may
differ — heuristic state is not shared).  ``bench_solver_throughput.py``
records both backends' propagation rates without a bar on their ratio.
"""

from __future__ import annotations

import heapq
import os
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sat.solver import SolverStats, _luby


class ArenaSolver:
    """Incremental CDCL solver over DIMACS literals (arena clause storage).

    Public surface matches :class:`repro.sat.solver.Solver`:
    ``add_clause`` / ``add_clauses`` / ``solve`` / ``model`` /
    ``model_literal`` / ``new_var`` / ``stats``.
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self._arena: List[int] = []      # flattened clauses: [len, lit, ...]
        self._watches: List[List[int]] = [[], []]  # enc(lit) -> clause refs
        self._assign: List[int] = [0]    # 1-indexed; 0 / +1 / -1
        self._level: List[int] = [0]
        self._reason: List[int] = [-1]   # clause ref, or -1 for none
        self._activity: List[float] = [0.0]
        self._phase: List[int] = [0]
        self._in_heap: List[bool] = [False]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._order_heap: List = []
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._model: Dict[int, int] = {}
        self._unsat = False
        self.stats = SolverStats()
        # Optional event-trace hooks (see repro.trace), mirrored from the
        # reference solver: checked only on conflict/restart branches, never
        # inside the inlined propagation loop.
        self.trace = None
        self.trace_stride = 1
        # Optional DRUP proof hook (see repro.check.certify), mirrored from
        # the reference solver: one attribute test per conflict when off.
        self.proof = None
        # Debug sanitizer (see repro.check.solver), mirrored from the
        # reference solver: audited at decision points only, one attribute
        # test per decision when off.
        self.check_invariants = os.environ.get("REPRO_CHECK_SOLVER", "") == "1"

    # ------------------------------------------------------------------ #
    # variable / clause management
    # ------------------------------------------------------------------ #
    def new_var(self) -> int:
        self.num_vars += 1
        self._assign.append(0)
        self._level.append(0)
        self._reason.append(-1)
        self._activity.append(0.0)
        self._phase.append(0)
        self._in_heap.append(False)
        self._watches.append([])
        self._watches.append([])
        return self.num_vars

    def _ensure_var(self, var: int) -> None:
        while self.num_vars < var:
            self.new_var()

    def _value(self, lit: int) -> int:
        value = self._assign[lit if lit > 0 else -lit]
        if value == 0:
            return 0
        return value if lit > 0 else -value

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause.  Must be called at decision level 0 (between solves)."""
        clause = []
        seen = set()
        for lit in literals:
            lit = int(lit)
            if lit == 0:
                raise ValueError("literal 0 is not allowed")
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            clause.append(lit)
            self._ensure_var(abs(lit))
        if not clause:
            self._unsat = True
            return
        simplified = []
        for lit in clause:
            value = self._value(lit)
            if value == 1 and self._level[abs(lit)] == 0:
                return
            if value == -1 and self._level[abs(lit)] == 0:
                continue
            simplified.append(lit)
        if not simplified:
            self._unsat = True
            return
        if len(simplified) == 1:
            if not self._enqueue(simplified[0], -1):
                self._unsat = True
            elif self._propagate() >= 0:
                self._unsat = True
            return
        self._store_clause(simplified)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def _store_clause(self, literals: Sequence[int]) -> int:
        """Append a clause to the arena, watch its first two literals.

        Watcher lists hold flat ``(ref, blocker)`` pairs — the blocker is a
        literal of the clause (initially the *other* watched literal) whose
        truth lets propagation skip the clause without touching the arena.
        For binary clauses the blocker IS the remaining literal, so they
        propagate straight off the watcher list.
        """
        arena = self._arena
        ref = len(arena)
        arena.append(len(literals))
        arena.extend(literals)
        # Watch literals[0] and literals[1]: visit the clause when either
        # becomes false, i.e. when its negation becomes true.
        watches = self._watches
        first, second = literals[0], literals[1]
        wl = watches[(first << 1 | 1) if first > 0 else (-first << 1)]
        wl.append(ref)
        wl.append(second)
        wl = watches[(second << 1 | 1) if second > 0 else (-second << 1)]
        wl.append(ref)
        wl.append(first)
        return ref

    # ------------------------------------------------------------------ #
    # assignment helpers
    # ------------------------------------------------------------------ #
    def _enqueue(self, lit: int, reason: int) -> bool:
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

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        boundary = self._trail_lim[level]
        assign, phase, reason = self._assign, self._phase, self._reason
        in_heap, heap_push = self._in_heap, self._heap_push
        for lit in reversed(self._trail[boundary:]):
            var = lit if lit > 0 else -lit
            phase[var] = assign[var]
            assign[var] = 0
            reason[var] = -1
            if not in_heap[var]:
                heap_push(var)
        del self._trail[boundary:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------ #
    # propagation (the hot loop: everything inlined, locals bound)
    # ------------------------------------------------------------------ #
    def _propagate(self) -> int:
        """Unit propagation.  Returns a conflicting clause ref or -1."""
        arena = self._arena
        watches = self._watches
        assign = self._assign
        level = self._level
        reason = self._reason
        trail = self._trail
        current_level = len(self._trail_lim)
        propagations = 0
        qhead = self._qhead
        conflict = -1
        while qhead < len(trail):  # hot-loop
            lit = trail[qhead]
            qhead += 1
            propagations += 1
            widx = (lit << 1) if lit > 0 else (-lit << 1 | 1)
            watching = watches[widx]
            if not watching:
                continue
            # ``keep`` is created lazily on the first watcher that moves away:
            # blocker-true skips, binary propagations and unit/conflict
            # clauses all keep their watcher, so the common cascade touches
            # the list read-only and pays zero compaction cost.
            keep: Optional[List[int]] = None
            false_lit = -lit
            i = 0
            n = len(watching)
            while i < n:
                ref = watching[i]
                blocker = watching[i + 1]
                i += 2
                # Blocker true: the clause is satisfied, skip the arena read.
                blocker_value = assign[blocker] if blocker > 0 else -assign[-blocker]
                if blocker_value == 1:
                    if keep is not None:
                        keep.append(ref)
                        keep.append(blocker)
                    continue
                if arena[ref] == 2:
                    # Binary clause: the blocker is the only other literal, so
                    # it is unit (enqueue) or conflicting right here.
                    if keep is not None:
                        keep.append(ref)
                        keep.append(blocker)
                    if blocker_value == -1:
                        conflict = ref
                        if keep is not None:
                            keep.extend(watching[i:])
                        break
                    var = blocker if blocker > 0 else -blocker
                    assign[var] = 1 if blocker > 0 else -1
                    level[var] = current_level
                    reason[var] = ref
                    trail.append(blocker)
                    continue
                # Normalise so the falsified watched literal sits at ref+2.
                if arena[ref + 1] == false_lit:
                    arena[ref + 1] = arena[ref + 2]
                    arena[ref + 2] = false_lit
                first = arena[ref + 1]
                if first == blocker:
                    first_value = blocker_value
                else:
                    first_value = assign[first] if first > 0 else -assign[-first]
                    if first_value == 1:
                        if keep is not None:
                            keep.append(ref)
                            keep.append(first)
                        continue
                # Look for a replacement watch among the tail literals.
                found = False
                for k in range(ref + 3, ref + 1 + arena[ref]):
                    other = arena[k]
                    other_value = assign[other] if other > 0 else -assign[-other]
                    if other_value != -1:
                        arena[ref + 2] = other
                        arena[k] = false_lit
                        moved = watches[(other << 1 | 1) if other > 0
                                        else (-other << 1)]
                        moved.append(ref)
                        moved.append(first)
                        if keep is None:
                            keep = watching[: i - 2]
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                if keep is not None:
                    keep.append(ref)
                    keep.append(first)
                if first_value == -1:
                    conflict = ref
                    if keep is not None:
                        keep.extend(watching[i:])
                    break
                var = first if first > 0 else -first
                assign[var] = 1 if first > 0 else -1
                level[var] = current_level
                reason[var] = ref
                trail.append(first)
            if keep is not None:
                watches[widx] = keep
            if conflict >= 0:
                break
        self._qhead = qhead
        self.stats.propagations += propagations
        return conflict

    # ------------------------------------------------------------------ #
    # conflict analysis
    # ------------------------------------------------------------------ #
    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._assign[var] == 0:
            self._heap_push(var)
        if self._activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100

    def _analyze(self, conflict_ref: int):
        """First-UIP conflict analysis over arena clause refs."""
        arena = self._arena
        learned: List[int] = [0]
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit: Optional[int] = None
        ref = conflict_ref
        index = len(self._trail) - 1
        current_level = len(self._trail_lim)
        levels = self._level

        while True:
            for pos in range(ref + 1, ref + 1 + arena[ref]):
                reason_lit = arena[pos]
                if lit is not None and reason_lit == lit:
                    continue
                var = reason_lit if reason_lit > 0 else -reason_lit
                if not seen[var] and levels[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if levels[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(reason_lit)
            while not seen[abs(self._trail[index])]:
                index -= 1
            lit = self._trail[index]
            var = abs(lit)
            seen[var] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            ref = self._reason[var]
            assert ref >= 0, "decision reached before UIP"
        learned[0] = -lit

        if len(learned) == 1:
            return learned, 0
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
        self._in_heap[var] = True
        heapq.heappush(self._order_heap, (-self._activity[var], var))

    def _pick_branch_variable(self) -> Optional[int]:
        while self._order_heap:
            neg_activity, var = heapq.heappop(self._order_heap)
            self._in_heap[var] = False
            if self._assign[var] != 0:
                continue
            if -neg_activity != self._activity[var]:
                self._heap_push(var)
                continue
            return var
        unassigned = [v for v in range(1, self.num_vars + 1) if self._assign[v] == 0]
        if not unassigned:
            return None
        for var in unassigned:
            self._heap_push(var)
        return max(unassigned, key=lambda v: self._activity[v])

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
        """Run the CDCL search (same contract as the reference solver)."""
        assumptions = list(assumptions or [])
        if 0 in assumptions:
            raise ValueError("literal 0 is not allowed")
        self.stats.solve_calls += 1
        if self._unsat:
            return False
        for lit in assumptions:
            self._ensure_var(abs(lit))
        num_assumptions = len(assumptions)

        self._backtrack(0)
        if self._propagate() >= 0:
            self._unsat = True
            return False

        deadline = time.monotonic() + time_limit if time_limit else None
        conflicts_this_call = 0
        restart_index = 1
        restart_budget = 32 * _luby(restart_index)
        conflicts_since_restart = 0

        while True:
            conflict = self._propagate()
            if conflict >= 0:
                self.stats.conflicts += 1
                conflicts_this_call += 1
                conflicts_since_restart += 1
                if not self._trail_lim:
                    self._unsat = True
                    return False
                if len(self._trail_lim) <= num_assumptions:
                    self._backtrack(0)
                    return False
                learned, back_level = self._analyze(conflict)
                if self.proof is not None:
                    # Mirrors the reference solver: every learned clause is a
                    # DRUP addition the independent checker re-derives.
                    self.proof.learned(learned)
                if self.trace is not None and (
                    self.stats.conflicts % self.trace_stride == 0
                ):
                    # LBD must be read before backtracking clears the levels.
                    levels = self._level
                    self.trace.emit(
                        "conflict",
                        conflicts=self.stats.conflicts,
                        decisions=self.stats.decisions,
                        propagations=self.stats.propagations,
                        learned=self.stats.learned_clauses,
                        level=len(self._trail_lim),
                        lbd=len({levels[abs(lit)] for lit in learned}),
                        learned_len=len(learned),
                    )
                back_level = max(back_level, num_assumptions)
                self._backtrack(back_level)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], -1):
                        self._unsat = True
                        return False
                else:
                    ref = self._store_clause(learned)
                    self.stats.learned_clauses += 1
                    self._enqueue(learned[0], ref)
                self._var_inc /= self._var_decay

                if conflict_limit is not None and conflicts_this_call >= conflict_limit:
                    self._backtrack(0)
                    return None
                if deadline is not None and time.monotonic() > deadline:
                    self._backtrack(0)
                    return None
                if conflicts_since_restart >= restart_budget:
                    self.stats.restarts += 1
                    if self.trace is not None:
                        self.trace.emit(
                            "restart",
                            restarts=self.stats.restarts,
                            conflicts=self.stats.conflicts,
                        )
                    restart_index += 1
                    restart_budget = 32 * _luby(restart_index)
                    conflicts_since_restart = 0
                    self._backtrack(min(num_assumptions, len(self._trail_lim)))
                continue

            # No conflict: propagation quiesced — audit the solver state
            # before committing to the next decision (debug flag only).
            if self.check_invariants:
                self._run_invariant_checks()

            # Place assumptions first, then decide.
            if len(self._trail_lim) < num_assumptions:
                lit = assumptions[len(self._trail_lim)]
                value = self._value(lit)
                if value == 1:
                    self._trail_lim.append(len(self._trail))
                    continue
                if value == -1:
                    self._backtrack(0)
                    return False
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, -1)
                continue

            var = (None if len(self._trail) == self.num_vars
                   else self._pick_branch_variable())
            if var is None:
                self._model = {
                    v: (1 if value == 1 else 0)
                    for v, value in enumerate(self._assign)
                }
                self._model.pop(0, None)
                self._backtrack(0)
                return True
            self.stats.decisions += 1
            if (deadline is not None and self.stats.decisions % 512 == 0
                    and time.monotonic() > deadline):
                self._backtrack(0)
                return None
            self._trail_lim.append(len(self._trail))
            phase = self._phase[var]
            self._enqueue(var if phase == 1 else -var, -1)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def model(self) -> Dict[int, int]:
        """The satisfying assignment (var -> 0/1) of the last SAT answer."""
        return dict(self._model)

    def model_literal(self, lit: int) -> int:
        """Value (0/1) of a literal under the last model."""
        value = self._model.get(abs(lit), 0)
        return value if lit > 0 else 1 - value

    def _run_invariant_checks(self) -> None:
        """Debug-flag hook: raise SolverStateError on any broken invariant."""
        from repro.check.solver import assert_solver_invariants

        assert_solver_invariants(self)
