"""Static analysis, state sanitizers and certificates for unchecked invariants.

Four analyzers, one per invariant the test suite cannot enforce globally
(documented in ``CHECKS.md``, driven by ``python -m repro check``):

* :mod:`repro.check.lint` — an AST linter over ``src/``, ``tests/`` and
  ``benchmarks/`` with repo-specific rules: no wall-clock / unseeded-random
  calls in byte-identity-critical modules, no raw ``json.loads``-per-line
  loops outside :mod:`repro.jsonutil`, no tracing or allocation-heavy calls
  inside loops marked ``# hot-loop``, ``to_dict``/``from_dict`` round-trip
  completeness, and no silently-swallowed broad exception handlers.
* :mod:`repro.check.program` — a structural check proving the engine's
  compiled op list is levelized and single-assignment with the right arity
  per op kind (always-on in the tests; opt-in at runtime via
  ``REPRO_CHECK_KERNELS=1``), plus the packed-word range sanitizer.
* :mod:`repro.check.solver` — CNF well-formedness checks plus CDCL state
  sanitizers (watch lists, trail/level consistency, implication-graph
  acyclicity) for the CDCL solver, run at decision points under
  ``REPRO_CHECK_SOLVER=1``.
* :mod:`repro.check.certify` — machine-checkable certificates: DRUP proof
  logging for every UNSAT solver answer, an independent RUP proof checker
  that shares no code with the solvers, and SAT-based translation
  validation of the engine compiler's op list
  (:mod:`repro.check.certify.equiv`, imported lazily — it pulls in the
  engine stack).
"""

from repro.check.certify import (
    DimacsError,
    DimacsFile,
    ProofError,
    ProofLogger,
    ProofStats,
    RupChecker,
    check_certificate,
    check_proof_lines,
    load_dimacs,
    parse_dimacs,
    write_certificate,
)
from repro.check.lint import (
    Finding,
    RULES,
    lint_paths,
    lint_source,
    render_findings,
)
from repro.check.program import (
    KernelVerificationError,
    verify_compiled,
    verify_packed_words,
)
from repro.check.solver import (
    SolverStateError,
    Violation,
    assert_cnf_ok,
    assert_solver_invariants,
    check_cnf,
    check_solver_invariants,
)

__all__ = [
    "DimacsError",
    "DimacsFile",
    "ProofError",
    "ProofLogger",
    "ProofStats",
    "RupChecker",
    "check_certificate",
    "check_proof_lines",
    "load_dimacs",
    "parse_dimacs",
    "write_certificate",
    "Finding",
    "RULES",
    "lint_paths",
    "lint_source",
    "render_findings",
    "KernelVerificationError",
    "verify_compiled",
    "verify_packed_words",
    "SolverStateError",
    "Violation",
    "assert_cnf_ok",
    "assert_solver_invariants",
    "check_cnf",
    "check_solver_invariants",
]
