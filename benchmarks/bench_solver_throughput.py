"""Solver-backend throughput and trace-hook overhead.

The session layer (:mod:`repro.sat.session`) ships two CDCL backends: the
default ``"cdcl"`` solver and the ``"cdcl-arena"`` variant (flattened clause
arena, flat watcher lists with blocker literals).  Both must return
identical SAT/UNSAT answers; their propagation rates on the BCP cascade and
on conflict-heavy search are recorded, with no bar on which is faster.  The
trace subsystem must cost the default backend at most 5% with no active
tracer and at most 25% tracing at the default stride.

The benches, their workload builders, bars and smoke scaling live in the
:mod:`repro.perf` registry (``repro/perf/suites/solver.py``); this module
is the pytest face of those registered benches.

Run with:
    PYTHONPATH=src python -m pytest benchmarks/bench_solver_throughput.py -q -s

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) for a reduced-size run.
"""

from repro.sat.session import solver_backends


def test_backends_registered():
    names = solver_backends()
    assert "cdcl" in names and "cdcl-arena" in names


def test_bcp_propagation_rates_recorded(perf_run):
    """Both backends' propagation rates on the BCP cascade."""
    result = perf_run("solver.bcp_ratio")
    assert result.metrics["cdcl_rate"] > 0 and result.metrics["arena_rate"] > 0


def test_search_rates_and_answer_identity(perf_run):
    """Both backends' rates on search, with identical SAT/UNSAT answers.

    The answer-identity check runs inside the registered bench (a
    disagreement raises before any rate is recorded).
    """
    perf_run("solver.search_ratio")


def test_trace_off_overhead_bar(perf_run):
    """With no active tracer the session+hooks path costs <= 5% on BCP."""
    perf_run("solver.trace_off_overhead")


def test_trace_on_overhead_bar(perf_run):
    """Tracing ON at the default stride keeps >= 75% of search throughput.

    The registered bench also validates the recorded traces (they must
    parse and carry meta / solve-end / conflict events).
    """
    perf_run("solver.trace_on_overhead")
