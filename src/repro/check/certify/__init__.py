"""Machine-checkable certificates for the solver and the engine compiler.

Every attack-loop termination and every "key is correct" verdict rests on an
UNSAT answer from a hand-rolled CDCL, and every oracle query rests on the
engine's compiled op list.  This subpackage makes both claims *checkable*
(documented in ``CHECKS.md``):

* :mod:`repro.check.certify.proof` — DRUP proof logging: a
  :class:`~repro.check.certify.proof.ProofLogger` the CDCL solver feeds
  its learned/deleted clauses into, plus the certificate writer that pairs
  each UNSAT answer with a DIMACS CNF (assumptions appended as unit clauses)
  and a standard DRUP proof file.
* :mod:`repro.check.certify.drup` — an independent pure-python RUP checker
  that replays a proof against the original CNF with its own watched-literal
  propagation.  It shares **no** code with the solver: a bug would have to
  be made twice, independently, to go unnoticed.
* :mod:`repro.check.certify.dimacs` — standard multi-line DIMACS CNF
  reading, shared by ``repro check cnf`` and ``repro check proof``.
* :mod:`repro.check.certify.equiv` — SAT-based translation validation of the
  engine compiler: the op list the engine interprets is encoded to CNF and
  proven equivalent to the netlist semantics bit by bit, with the miter
  UNSAT answers themselves DRUP-certified and re-checked (imported lazily —
  it pulls in the engine and session stacks).

``repro check proof CNF PROOF`` and ``repro check equiv`` are the CLI
entry points; ``repro attack --certify DIR`` arms proof logging end to end.
"""

from repro.check.certify.dimacs import DimacsError, DimacsFile, load_dimacs, parse_dimacs
from repro.check.certify.drup import (
    ProofError,
    ProofStats,
    RupChecker,
    check_certificate,
    check_proof_lines,
)
from repro.check.certify.proof import ProofLogger, write_certificate

__all__ = [
    "DimacsError",
    "DimacsFile",
    "load_dimacs",
    "parse_dimacs",
    "ProofError",
    "ProofStats",
    "RupChecker",
    "check_certificate",
    "check_proof_lines",
    "ProofLogger",
    "write_certificate",
]
