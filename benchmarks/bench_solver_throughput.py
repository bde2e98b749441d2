"""Trace-hook overhead of the CDCL solver.

The trace subsystem must cost the solver at most 5% with no active tracer
and at most 25% tracing at the default stride.

The benches, their workload builders, bars and smoke scaling live in the
:mod:`repro.perf` registry (``repro/perf/suites/solver.py``); this module
is the pytest face of those registered benches.

Run with:
    PYTHONPATH=src python -m pytest benchmarks/bench_solver_throughput.py -q -s

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) for a reduced-size run.
"""


def test_trace_off_overhead_bar(perf_run):
    """With no active tracer the session+hooks path costs <= 5% on BCP."""
    perf_run("solver.trace_off_overhead")


def test_trace_on_overhead_bar(perf_run):
    """Tracing ON at the default stride keeps >= 75% of search throughput.

    The registered bench also validates the recorded traces (they must
    parse and carry meta / solve-end / conflict events).
    """
    perf_run("solver.trace_on_overhead")
