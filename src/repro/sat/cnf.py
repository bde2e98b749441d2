"""CNF containers.

Literals follow the DIMACS convention: variables are positive integers and a
negative literal is the negated variable.  :class:`CNF` is a thin container
used to pass formulas between the Tseitin encoder, the attacks and the
solver; the solver itself keeps its own internal clause database.  DIMACS
text is read and written by :mod:`repro.check.certify.dimacs`.

:meth:`CNF.add_clause` is the checked entry point for clauses built outside
the encoder (KC2's fixed key bits, the translation validator's gate
clauses, test fixtures): it stores plain ``int`` tuples and rejects an
empty clause or a literal 0.  The Tseitin encoder appends to
``clauses`` directly, since its literals are valid by construction (see
:mod:`repro.sat.tseitin`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

Clause = Tuple[int, ...]


@dataclass
class CNF:
    """A CNF formula: a clause list plus the number of variables used."""

    num_vars: int = 0
    clauses: List[Clause] = field(default_factory=list)

    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add one checked clause, updating ``num_vars`` to cover its literals.

        Literals are stored as plain ``int``; an empty clause or a literal 0
        raises ``ValueError`` and stores nothing.
        """
        clause = tuple(map(int, literals))
        if not clause:
            raise ValueError("empty clause added to CNF (formula is trivially UNSAT)")
        if 0 in clause:
            raise ValueError("literal 0 is not allowed")
        self.clauses.append(clause)
        top = max(max(clause), -min(clause))
        if top > self.num_vars:
            self.num_vars = top

    def extend(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add many clauses."""
        for clause in clauses:
            self.add_clause(clause)

    def copy(self) -> "CNF":
        """Shallow copy (clauses are immutable tuples)."""
        return CNF(num_vars=self.num_vars, clauses=list(self.clauses))

    def __len__(self) -> int:
        return len(self.clauses)
