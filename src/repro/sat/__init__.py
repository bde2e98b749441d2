"""A self-contained SAT layer: CNF containers, one CDCL solver and
circuit-to-CNF (Tseitin) encoding.

All oracle-guided attacks in :mod:`repro.attacks` (SAT attack, AppSAT,
DoubleDIP, BMC/"BBO", KC2, RANE) are built on this layer, which stands in for
the MiniSAT/Glucose back-ends embedded in the NEOS and RANE tools used by the
paper.  Attacks reach the :class:`~repro.sat.solver.Solver` through
:class:`repro.sat.session.SolveSession`, which owns incremental clause
syncing, budget accounting and the
:class:`~repro.sat.session.SolverTelemetry` counters every attack and
campaign record carries.  ``DEFAULT_BACKEND`` (``"cdcl"``) is the solver's
name in those counters and in trace ``session`` events.
"""

from repro.sat.cnf import CNF, Clause
from repro.sat.solver import Solver, SolverStats
from repro.sat.session import (
    DEFAULT_BACKEND,
    SolveSession,
    SolverTelemetry,
    capture_solver_telemetry,
)
from repro.sat.tseitin import TseitinEncoder

__all__ = [
    "CNF",
    "Clause",
    "Solver",
    "SolverStats",
    "DEFAULT_BACKEND",
    "SolveSession",
    "SolverTelemetry",
    "capture_solver_telemetry",
    "TseitinEncoder",
]
