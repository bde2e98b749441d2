"""DRUP proof logging and certificate emission.

A DRUP (Delete Reverse Unit Propagation) proof is a text file with one
step per line:

* ``l1 l2 ... 0`` — the solver claims clause ``(l1 ∨ l2 ∨ ...)`` follows
  from the formula plus all earlier additions, checkable by reverse unit
  propagation;
* ``d l1 l2 ... 0`` — the solver will never use that clause again (lets
  the checker drop it, keeping replay cost proportional to the solver's
  live clause database once clause-DB reduction lands);
* a final ``0`` — the empty clause: the formula is UNSAT.

The CDCL solver carries a ``proof`` attribute (``None`` when disarmed —
the same zero-cost pattern as the trace hooks) pointing at a
:class:`ProofLogger`.  `SolveSession` owns the logger and, on each UNSAT
answer, writes a *certificate pair*: the CNF it actually solved (original
clauses plus the query's assumptions appended as unit clauses, so an
assumption-scoped UNSAT becomes a plain UNSAT of the certificate formula)
and the DRUP proof.  ``repro check proof`` replays the pair with the
independent checker in :mod:`repro.check.certify.drup`.

This module imports nothing from `repro.sat` — the logging/writing side
stays dependency-free, mirroring the checker.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.check.certify.dimacs import render_dimacs

__all__ = ["ProofLogger", "render_proof", "write_certificate"]


class ProofLogger:
    """Collects DRUP steps emitted by the CDCL solver.

    Steps accumulate across incremental `solve()` calls on purpose: a
    clause learned in query N is part of the solver's database for query
    N+1, so a later certificate must replay it.  `reset()` matches
    `SolveSession.reset_solver()`, which discards all learned clauses.
    """

    __slots__ = ("steps",)

    def __init__(self) -> None:
        self.steps: List[Tuple[str, Tuple[int, ...]]] = []

    def learned(self, literals: Iterable[int]) -> None:
        """Record a clause addition (a learned clause, RUP by construction)."""
        self.steps.append(("", tuple(literals)))

    def deleted(self, literals: Iterable[int]) -> None:
        """Record a clause deletion (clause-DB reduction / minimization)."""
        self.steps.append(("d", tuple(literals)))

    def reset(self) -> None:
        del self.steps[:]

    def __len__(self) -> int:
        return len(self.steps)


def render_proof(steps: Sequence[Tuple[str, Sequence[int]]]) -> str:
    """Render logged steps as DRUP text, ending with the empty clause."""
    lines = []
    for kind, literals in steps:
        body = " ".join(str(lit) for lit in literals)
        if kind == "d":
            lines.append(f"d {body} 0" if body else "d 0")
        else:
            lines.append(f"{body} 0" if body else "0")
    lines.append("0")
    return "\n".join(lines) + "\n"


def write_certificate(
    cnf_path,
    proof_path,
    clauses: Sequence[Sequence[int]],
    num_vars: int,
    *,
    assumptions: Sequence[int] = (),
    steps: Sequence[Tuple[str, Sequence[int]]] = (),
) -> None:
    """Write a certificate pair for one UNSAT answer.

    The assumptions under which the solver reported UNSAT become unit
    clauses of the certificate CNF: the solver proved F ∧ a1 ∧ ... ∧ ak
    unsatisfiable, and that conjunction *is* the certificate formula, so
    the proof file stays pure standard DRUP.
    """
    cert_clauses: List[Sequence[int]] = list(clauses)
    cert_vars = num_vars
    for lit in assumptions:
        cert_clauses.append((lit,))
        if abs(lit) > cert_vars:
            cert_vars = abs(lit)
    with open(cnf_path, "w", encoding="utf-8") as handle:
        handle.write(render_dimacs(cert_clauses, cert_vars))
    with open(proof_path, "w", encoding="utf-8") as handle:
        handle.write(render_proof(steps))
