"""Trace-hook overhead of the CDCL solver.

The trace subsystem must cost the solver at most 5% with no active tracer
and at most 25% tracing at the default stride.  Both bars compare best-of-3
propagation rates; the workloads come from :mod:`repro.perf`, the same
instances ``tests/property/test_solver_golden.py`` pins.

Run with:
    PYTHONPATH=src python -m pytest benchmarks/bench_solver_throughput.py -q -s

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) for a reduced-size run.
"""

import random
from contextlib import nullcontext

from repro.perf import layered_circuit_cnf, search_instances, timed
from repro.sat.session import SolveSession
from repro.sat.solver import Solver
from repro.trace import read_trace_events, trace_to

#: Best-of repetitions for every rate measurement (shrugs off runner noise).
REPEATS = 3


def assumption_sets(num_inputs, queries):
    rng = random.Random(1)
    return [
        [(v if rng.random() < 0.5 else -v) for v in range(1, num_inputs + 1)]
        for _ in range(queries)
    ]


def bcp_rate(clauses, queries, *, session):
    """Propagations/second of one sweep of conflict-free BCP queries.

    ``session=False`` drives the raw solver.  ``session=True`` goes through
    :class:`SolveSession` with no tracer active: the tracing-OFF shape of
    the hot loop, where every hook check is a ``None`` test.
    """
    if session:
        front = SolveSession()
        solver = front.solver
    else:
        front = solver = Solver()
    solver.add_clauses(clauses)
    front.solve(assumptions=queries[0])  # warm-up
    before = solver.stats.propagations
    answers, elapsed = timed(
        lambda: [front.solve(assumptions=assumptions) for assumptions in queries]
    )
    assert all(answers), "BCP cascade query came back UNSAT"
    return (solver.stats.propagations - before) / elapsed


def search_rate(corpus, *, conflicts, trace_path=None):
    """Conflict-heavy search rate of one sweep over ``corpus`` through SolveSession.

    With ``trace_path`` set the sweep records a real trace there at the
    default sampling stride (conflict events, restart events, solve
    markers), so this measures the full tracing-ON cost, serialisation
    included.
    """
    propagations = 0

    def sweep():
        nonlocal propagations
        for clauses in corpus:
            session = SolveSession()
            session.solver.add_clauses(clauses)
            session.solve(conflict_limit=conflicts)
            propagations += session.solver.stats.propagations

    with trace_to(trace_path) if trace_path is not None else nullcontext():
        _, elapsed = timed(sweep)
    return propagations / elapsed


def test_trace_off_overhead_bar(perf_smoke):
    """With no active tracer the session+hooks path costs <= 5% on BCP.

    Measured as interleaved raw/session pairs; the bar is the *best* pair,
    because shared-runner noise (frequency scaling, neighbours) is
    one-sided and transient while a real hook-in-the-hot-loop regression
    slows every single pair.
    """
    num_gates, queries = (2000, 30) if perf_smoke else (4000, 60)
    clauses, num_inputs = layered_circuit_cnf(num_gates=num_gates)
    sets = assumption_sets(num_inputs, queries)
    pairs = [
        (bcp_rate(clauses, sets, session=False), bcp_rate(clauses, sets, session=True))
        for _ in range(REPEATS)
    ]
    raw, session = max(pairs, key=lambda pair: pair[1] / pair[0])
    slowdown, limit = max(0.0, 1.0 - session / raw), 0.05
    print(f"\nsolver.trace_off_overhead: slowdown {slowdown:.4f} <= {limit:g}")
    assert slowdown <= limit


def test_trace_on_overhead_bar(perf_smoke, tmp_path):
    """Tracing ON at the default stride keeps >= 75% of search throughput.

    Untraced and traced sweeps alternate, so load that comes and goes on a
    shared host falls on both sides alike; the bar compares the best rate
    of each side.  The recorded traces must also be real: every file parses
    and carries sampled conflict events, since an empty trace would make
    the bar meaningless.
    """
    instances, num_vars, conflicts = (3, 100, 12_000) if perf_smoke else (6, 120, 20_000)
    corpus = search_instances(instances=instances, num_vars=num_vars, smoke=perf_smoke)
    untraced = traced = 0.0
    for repeat in range(REPEATS):
        untraced = max(untraced, search_rate(corpus, conflicts=conflicts))
        traced = max(traced, search_rate(
            corpus, conflicts=conflicts, trace_path=tmp_path / f"search-{repeat}.trace.jsonl",
        ))
    files = sorted(tmp_path.glob("*.trace.jsonl"))
    assert files, "tracing-on run produced no trace files"
    for path in files:
        kinds = {event.get("kind") for event in read_trace_events(path)}
        assert {"meta", "solve-end", "conflict"} <= kinds, (path, kinds)
    slowdown, limit = max(0.0, 1.0 - traced / untraced), 0.25
    print(f"\nsolver.trace_on_overhead: slowdown {slowdown:.4f} <= {limit:g}")
    assert slowdown <= limit
