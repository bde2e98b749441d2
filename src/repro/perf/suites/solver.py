"""Solver suite: the trace-overhead bars of the CDCL solver.

The workload builders (layered BCP CNF, random 3-SAT corpus, pigeonhole)
and the benches of ``benchmarks/bench_solver_throughput.py`` live here as
registry data:

* ``solver.trace_off_overhead`` — session + trace hooks with no active
  writer cost <= 5% of raw-solver propagation throughput on a
  conflict-free BCP cascade (the DIP/DIS hot-loop shape);
* ``solver.trace_on_overhead`` — tracing at the default stride keeps
  >= 75% of conflict-heavy search throughput, and the traces must parse.

Each also records the absolute rates it compares: ``raw_rate`` is the raw
solver's BCP propagations/second, ``untraced_rate`` the untraced search
rate through :class:`~repro.sat.session.SolveSession`.
"""

from __future__ import annotations

import random
import tempfile
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.perf.harness import Harness
from repro.perf.registry import Bar, perf_benchmark

#: Best-of repetitions for every rate measurement (shrugs off runner noise).
REPEATS = 3


# ------------------------------------------------------------------ workloads
def layered_circuit_cnf(
    num_inputs: int = 60, num_gates: int = 4000, seed: int = 9
) -> Tuple[List[List[int]], int]:
    """AND/OR/XOR Tseitin-style clauses over a layered random netlist."""
    rng = random.Random(seed)
    clauses: List[List[int]] = []
    nets = list(range(1, num_inputs + 1))
    next_var = num_inputs + 1
    for _ in range(num_gates):
        pool = nets[-200:] if len(nets) > 200 else nets
        a, b = rng.sample(pool, 2)
        out = next_var
        next_var += 1
        kind = rng.random()
        if kind < 0.4:  # AND
            clauses += [[-out, a], [-out, b], [out, -a, -b]]
        elif kind < 0.8:  # OR
            clauses += [[out, -a], [out, -b], [-out, a, b]]
        else:  # XOR
            clauses += [[-out, a, b], [-out, -a, -b], [out, -a, b], [out, a, -b]]
        nets.append(out)
    return clauses, num_inputs


def pigeonhole(holes: int, pigeons: int) -> List[List[int]]:
    """The classic UNSAT pigeonhole instance (hard for CDCL by design)."""
    clauses: List[List[int]] = []

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    for p in range(pigeons):
        clauses.append([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def search_instances(
    *, instances: int, num_vars: int, smoke: bool
) -> List[List[List[int]]]:
    """Random 3-SAT near the phase transition plus one pigeonhole instance."""
    rng = random.Random(123)
    corpus = []
    for _ in range(instances):
        clauses = [
            [rng.choice([1, -1]) * rng.randint(1, num_vars) for _ in range(3)]
            for _ in range(int(num_vars * 4.26))
        ]
        corpus.append(clauses)
    corpus.append(pigeonhole(6 if smoke else 7, 7 if smoke else 8))
    return corpus


def _assumption_sets(num_inputs: int, queries: int) -> List[List[int]]:
    rng = random.Random(1)
    return [
        [(v if rng.random() < 0.5 else -v) for v in range(1, num_inputs + 1)]
        for _ in range(queries)
    ]


# --------------------------------------------------------------------- rates
def bcp_rate(
    *, num_gates: int, queries: int, repeats: int = REPEATS,
    samples_out: Optional[List[float]] = None,
) -> float:
    """Best sustained propagations/second on the BCP cascade (raw solver)."""
    from repro.sat.solver import Solver

    clauses, num_inputs = layered_circuit_cnf(num_gates=num_gates)
    assumption_sets = _assumption_sets(num_inputs, queries)
    best = 0.0
    for _ in range(repeats):
        solver = Solver()
        solver.add_clauses(clauses)
        solver.solve(assumptions=assumption_sets[0])  # warm-up
        before = solver.stats.propagations
        result, elapsed = Harness.timed(
            lambda: [solver.solve(assumptions=assumptions)
                     for assumptions in assumption_sets]
        )
        if not all(result):  # type: ignore[arg-type]
            raise RuntimeError("BCP cascade query came back UNSAT")
        if samples_out is not None:
            samples_out.append(elapsed)
        best = max(best, (solver.stats.propagations - before) / elapsed)
    return best


def session_bcp_rate(
    *, num_gates: int, queries: int, repeats: int = REPEATS,
    samples_out: Optional[List[float]] = None,
) -> float:
    """BCP-cascade propagation rate through the full SolveSession path.

    No tracer is active, so this is the tracing-OFF shape of the hot loop:
    hook attributes exist on the solver but every check is a ``None`` test.
    """
    from repro.sat.session import SolveSession

    clauses, num_inputs = layered_circuit_cnf(num_gates=num_gates)
    assumption_sets = _assumption_sets(num_inputs, queries)
    best = 0.0
    for _ in range(repeats):
        session = SolveSession()
        session.solver.add_clauses(clauses)
        session.solve(assumptions=assumption_sets[0])  # warm-up
        before = session.solver.stats.propagations
        result, elapsed = Harness.timed(
            lambda: [session.solve(assumptions=assumptions)
                     for assumptions in assumption_sets]
        )
        if not all(result):  # type: ignore[arg-type]
            raise RuntimeError("session BCP query came back UNSAT")
        if samples_out is not None:
            samples_out.append(elapsed)
        best = max(best, (session.solver.stats.propagations - before) / elapsed)
    return best


def session_search_rate(
    *, instances: int, num_vars: int, conflicts: int, smoke: bool,
    trace_dir: Optional[Path] = None, repeats: int = REPEATS,
) -> float:
    """Conflict-heavy search rate through SolveSession, optionally traced.

    With ``trace_dir`` set every repeat records a real trace at the default
    sampling stride — conflict events, restart events, solve markers — so
    this measures the full tracing-ON cost, serialisation included.
    """
    from repro.sat.session import SolveSession
    from repro.trace import trace_to

    corpus = search_instances(instances=instances, num_vars=num_vars, smoke=smoke)
    best = 0.0
    for repeat in range(repeats):
        tracing = (
            trace_to(trace_dir / f"search-{repeat}.trace.jsonl")
            if trace_dir is not None
            else nullcontext()
        )
        propagations = 0

        def sweep() -> None:
            nonlocal propagations
            for clauses in corpus:
                session = SolveSession()
                session.solver.add_clauses(clauses)
                session.solve(conflict_limit=conflicts)
                propagations += session.solver.stats.propagations

        with tracing:
            _, elapsed = Harness.timed(sweep)
        best = max(best, propagations / elapsed)
    return best


# ------------------------------------------------------------------- benches
@perf_benchmark(
    "solver.trace_off_overhead",
    params=dict(num_gates=4000, queries=60),
    smoke=dict(num_gates=2000, queries=30),
    bars=[Bar("slowdown", "<=", 0.05)],
    primary="session_cascade",
)
def trace_off_overhead(harness: Harness, params: Dict[str, object]) -> Dict[str, float]:
    """Session + trace hooks with no active writer versus the raw solver.

    Measured as interleaved raw/session pairs; the gate is the *best* pair,
    because shared-runner noise (frequency scaling, neighbours) is
    one-sided and transient while a real hook-in-the-hot-loop regression
    slows every single pair.
    """
    num_gates, queries = int(params["num_gates"]), int(params["queries"])
    session_samples: List[float] = []
    pairs = []
    for _ in range(REPEATS):
        raw = bcp_rate(num_gates=num_gates, queries=queries, repeats=1)
        session = session_bcp_rate(num_gates=num_gates, queries=queries,
                                   repeats=1, samples_out=session_samples)
        pairs.append((raw, session))
    raw, session = max(pairs, key=lambda pair: pair[1] / pair[0])
    harness.record_series("session_cascade", session_samples)
    return {
        "raw_rate": raw,
        "session_rate": session,
        "slowdown": max(0.0, 1.0 - session / raw),
    }


@perf_benchmark(
    "solver.trace_on_overhead",
    params=dict(instances=6, num_vars=120, conflicts=20_000),
    smoke=dict(instances=3, num_vars=100, conflicts=12_000),
    bars=[Bar("slowdown", "<=", 0.25)],
)
def trace_on_overhead(harness: Harness, params: Dict[str, object]) -> Dict[str, float]:
    """Tracing ON at the default stride versus untraced search throughput.

    The recorded traces must also be real: every file parses and carries
    sampled conflict events — an empty trace would make the bar
    meaningless.
    """
    from repro.trace import read_trace_events

    kwargs = dict(
        instances=int(params["instances"]), num_vars=int(params["num_vars"]),
        conflicts=int(params["conflicts"]), smoke=harness.smoke,
    )
    untraced = session_search_rate(**kwargs)
    with tempfile.TemporaryDirectory(prefix="repro-perf-trace-") as tmp:
        trace_dir = Path(tmp)
        traced = session_search_rate(trace_dir=trace_dir, **kwargs)
        files = sorted(trace_dir.glob("*.trace.jsonl"))
        if not files:
            raise RuntimeError("tracing-on run produced no trace files")
        for path in files:
            kinds = {event.get("kind") for event in read_trace_events(path)}
            if not {"meta", "solve-end", "conflict"} <= kinds:
                raise RuntimeError(f"trace {path} is missing solver events: {kinds}")
    return {
        "untraced_rate": untraced,
        "traced_rate": traced,
        "slowdown": max(0.0, 1.0 - traced / untraced),
    }
