"""An independent DRUP proof checker.

Replays a DRUP proof against the original CNF and accepts it only if every
clause addition is RUP — assuming the negation of the added clause, unit
propagation over the formula plus all earlier (undeleted) additions must
reach a conflict — and the proof derives the empty clause.  Anything else
raises :class:`ProofError` with the offending proof line number.

This checker shares **no** code with `repro.sat`: it has its own literal
encoding conventions, its own two-watched-literal propagation, its own
trail.  That independence is the point — a soundness bug in the solvers
cannot silently vindicate its own proofs, because the same mistake would
have to be reimplemented here from a different design.

Deletion semantics follow drat-trim: a ``d`` line must name a clause that
is present (a bogus deletion is an error — the solver claimed to delete
something it never had), but deletions of unit clauses and of clauses that
are currently the *reason* for a root-level propagation are ignored rather
than honored, because their consequences are already on the trail and
cannot be unwound.  Ignoring a deletion is sound: every clause the checker
keeps is entailed by the original formula (it is an original clause or a
verified RUP addition), so any conflict unit propagation finds over the
kept set is still a genuine refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.check.certify.dimacs import load_dimacs

__all__ = ["ProofError", "ProofStats", "RupChecker", "check_proof_lines", "check_certificate"]


class ProofError(Exception):
    """A proof that does not verify; carries ``path`` and ``line``."""

    def __init__(self, path: str, line: int, message: str) -> None:
        self.path = path
        self.line = line
        self.message = message
        super().__init__(f"{path}:{line}: {message}")


@dataclass
class ProofStats:
    """What a successful replay did."""

    additions: int = 0
    deletions: int = 0
    deletions_ignored: int = 0
    original_clauses: int = 0
    num_vars: int = 0

    def render(self) -> str:
        return (
            f"{self.additions} addition(s), {self.deletions} deletion(s) "
            f"({self.deletions_ignored} ignored), over {self.original_clauses} "
            f"original clause(s) and {self.num_vars} variable(s)"
        )


def _clause_text(literals: Sequence[int]) -> str:
    if not literals:
        return "<empty>"
    return "(" + " ".join(str(lit) for lit in literals) + ")"


class RupChecker:
    """Replays DRUP steps over a clause database with watched-literal UP.

    Assignments live in ``_assign`` (1 true, -1 false, 0 unassigned, indexed
    by variable); the trail holds root-level consequences permanently and
    per-step assumption consequences transiently (rolled back after each RUP
    check).  Clauses are stored once and indexed by a sorted-literal key so
    deletions can find them regardless of literal order in the ``d`` line.
    """

    def __init__(self, clauses: Iterable[Sequence[int]], num_vars: int = 0) -> None:
        self._assign: List[int] = []
        self._reason: List[int] = []  # var -> clause id, or -1
        self._trail: List[int] = []
        self._qhead = 0
        self._clauses: List[Optional[List[int]]] = []
        self._by_key: Dict[Tuple[int, ...], List[int]] = {}
        self._contradiction = False
        self.stats = ProofStats()
        self._ensure_vars(num_vars)
        self._watches: Dict[int, List[int]] = {}
        for clause in clauses:
            self.stats.original_clauses += 1
            self._install(clause)
        self.stats.num_vars = len(self._assign) - 1 if self._assign else 0

    # ------------------------------------------------------------------
    # assignment plumbing

    def _ensure_vars(self, num_vars: int) -> None:
        while len(self._assign) <= num_vars:
            self._assign.append(0)
            self._reason.append(-1)

    def _value(self, lit: int) -> int:
        assigned = self._assign[abs(lit)]
        if assigned == 0:
            return 0
        return assigned if lit > 0 else -assigned

    def _enqueue(self, lit: int, reason: int) -> None:
        var = abs(lit)
        self._assign[var] = 1 if lit > 0 else -1
        self._reason[var] = reason
        self._trail.append(lit)

    def _propagate(self) -> bool:
        """Unit-propagate from the current queue head; True on conflict."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            watching = self._watches.get(-lit)
            if not watching:
                continue
            i = 0
            while i < len(watching):
                cid = watching[i]
                clause = self._clauses[cid]
                if clause is None:  # deleted; compact lazily
                    watching[i] = watching[-1]
                    watching.pop()
                    continue
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    i += 1
                    continue
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches.setdefault(clause[1], []).append(cid)
                        watching[i] = watching[-1]
                        watching.pop()
                        break
                else:
                    if self._value(first) == -1:
                        self._qhead = len(self._trail)
                        return True
                    self._enqueue(first, cid)
                    i += 1
        return False

    # ------------------------------------------------------------------
    # clause database

    def _install(self, literals: Sequence[int]) -> None:
        """Add a clause (original or verified addition) and propagate."""
        if self._contradiction:
            return
        lits: List[int] = []
        seen = set()
        tautology = False
        for lit in literals:
            if -lit in seen:
                tautology = True
            if lit not in seen:
                seen.add(lit)
                lits.append(lit)
            self._ensure_vars(abs(lit))
        cid = len(self._clauses)
        self._clauses.append(lits)
        self._by_key.setdefault(tuple(sorted(lits)), []).append(cid)
        if tautology:
            # Always satisfied: never watched, can never propagate.
            return
        if not lits:
            self._contradiction = True
            return
        if len(lits) == 1:
            value = self._value(lits[0])
            if value == -1:
                self._contradiction = True
            elif value == 0:
                self._enqueue(lits[0], cid)
                self._contradiction = self._propagate()
            return
        # Pick two non-false literals to watch; fewer means the clause is
        # already unit or conflicting at the root.
        free = [k for k, lit in enumerate(lits) if self._value(lit) != -1]
        if not free:
            self._contradiction = True
            return
        lits[0], lits[free[0]] = lits[free[0]], lits[0]
        if len(free) == 1:
            self._watches.setdefault(lits[0], []).append(cid)
            self._watches.setdefault(lits[1], []).append(cid)
            if self._value(lits[0]) == 0:
                self._enqueue(lits[0], cid)
                self._contradiction = self._propagate()
            return
        swap = free[1] if free[1] != 0 else 1
        lits[1], lits[swap] = lits[swap], lits[1]
        self._watches.setdefault(lits[0], []).append(cid)
        self._watches.setdefault(lits[1], []).append(cid)

    def is_rup(self, literals: Sequence[int]) -> bool:
        """True iff the clause follows by reverse unit propagation."""
        if self._contradiction:
            return True
        for lit in literals:
            self._ensure_vars(abs(lit))  # proofs may introduce fresh variables
        mark = len(self._trail)
        conflict = False
        for lit in literals:
            value = self._value(lit)
            if value == 1:
                conflict = True  # negating a root-true literal
                break
            if value == 0 and self._value(-lit) == 0:
                self._enqueue(-lit, -1)
        if not conflict:
            conflict = self._propagate()
        for lit in self._trail[mark:]:
            var = abs(lit)
            self._assign[var] = 0
            self._reason[var] = -1
        del self._trail[mark:]
        self._qhead = mark
        return conflict

    def add(self, literals: Sequence[int], *, path: str = "<proof>", line: int = 0) -> None:
        """Verify an addition by RUP and install it; raises ProofError."""
        if not self.is_rup(literals):
            raise ProofError(
                path,
                line,
                f"clause {_clause_text(literals)} is not RUP: assuming its negation, "
                "unit propagation reaches no conflict",
            )
        self.stats.additions += 1
        if literals:
            self._install(literals)
        else:
            self._contradiction = True

    def delete(self, literals: Sequence[int], *, path: str = "<proof>", line: int = 0) -> None:
        """Honor a deletion (drat-trim semantics); raises ProofError if absent."""
        if self._contradiction:
            # Past a root conflict additions are no longer installed, so
            # deletions can no longer be matched up — and no longer matter.
            self.stats.deletions += 1
            self.stats.deletions_ignored += 1
            return
        lits: List[int] = []
        seen = set()
        for lit in literals:
            if lit not in seen:
                seen.add(lit)
                lits.append(lit)
        key = tuple(sorted(lits))
        cids = self._by_key.get(key)
        if not cids:
            raise ProofError(
                path,
                line,
                f"deletion of clause {_clause_text(literals)} which is not in the database",
            )
        cid = cids.pop()
        if not cids:
            del self._by_key[key]
        self.stats.deletions += 1
        clause = self._clauses[cid]
        locked = clause is not None and any(
            self._reason[abs(lit)] == cid for lit in clause
        )
        if clause is None or len(clause) <= 1 or locked:
            # Unit clauses and root-propagation reasons stay: their
            # consequences are already on the trail and cannot be unwound.
            self.stats.deletions_ignored += 1
            return
        self._clauses[cid] = None  # watch lists compact lazily

    @property
    def contradiction(self) -> bool:
        return self._contradiction


def check_proof_lines(
    clauses: Iterable[Sequence[int]],
    proof_lines: Iterable[str],
    *,
    num_vars: int = 0,
    path: str = "<proof>",
) -> ProofStats:
    """Replay DRUP ``proof_lines`` against ``clauses``; raises ProofError.

    Returns the replay statistics on success.  Success requires every
    addition to be RUP, every deletion to name a present clause, and the
    proof to derive the empty clause before the file ends.
    """
    checker = RupChecker(clauses, num_vars)
    lineno = 0
    for lineno, raw in enumerate(proof_lines, 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        deletion = tokens[0] == "d"
        if deletion:
            tokens = tokens[1:]
            if not tokens:
                raise ProofError(path, lineno, "deletion line with no literals")
        try:
            numbers = [int(token) for token in tokens]
        except ValueError:
            raise ProofError(path, lineno, f"unparseable proof line {line!r}") from None
        if numbers[-1] != 0:
            raise ProofError(path, lineno, "proof line does not end with 0")
        literals = numbers[:-1]
        if any(lit == 0 for lit in literals):
            raise ProofError(path, lineno, "literal 0 in the middle of a proof line")
        if deletion:
            if not literals:
                raise ProofError(path, lineno, "deletion of the empty clause")
            checker.delete(literals, path=path, line=lineno)
        else:
            checker.add(literals, path=path, line=lineno)
            if not literals:
                return checker.stats
    raise ProofError(
        path,
        lineno + 1,
        "proof ends without deriving the empty clause (truncated proof, or the "
        "instance is not UNSAT)",
    )


def check_certificate(cnf_path: str, proof_path: str) -> ProofStats:
    """Check a certificate pair from disk; raises DimacsError/ProofError."""
    dimacs = load_dimacs(str(cnf_path))
    with open(proof_path, "r", encoding="utf-8") as handle:
        proof_lines = handle.read().splitlines()
    return check_proof_lines(
        dimacs.clauses,
        proof_lines,
        num_vars=dimacs.num_vars,
        path=str(proof_path),
    )
