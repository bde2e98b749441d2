"""Solver suite: backend propagation rates and trace-overhead bars.

The workload builders (layered BCP CNF, random 3-SAT corpus, pigeonhole)
and the benches of ``benchmarks/bench_solver_throughput.py`` live here as
registry data:

* ``solver.bcp_ratio`` — propagations/second of both backends (``cdcl``
  and ``cdcl-arena``) on a conflict-free BCP cascade (the DIP/DIS hot-loop
  shape), and their ratio;
* ``solver.search_ratio`` — the same on conflict-heavy search, with
  identical SAT/UNSAT answers;
* ``solver.trace_off_overhead`` — session + trace hooks with no active
  writer cost <= 5% of raw-solver BCP throughput;
* ``solver.trace_on_overhead`` — tracing at the default stride keeps
  >= 75% of search throughput, and the traces must parse.

The two rate benches carry no bar: neither backend has to beat the other
(the default ``cdcl`` wins on real attack cells), so they record absolute
rates, with the default backend's timings as the primary series.  The two
overhead benches measure the default backend, the one every attack runs.
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
    backend: str, *, num_gates: int, queries: int, repeats: int = REPEATS,
    samples_out: Optional[List[float]] = None,
) -> float:
    """Best sustained propagations/second on the BCP cascade (raw solver)."""
    from repro.sat.session import create_solver

    clauses, num_inputs = layered_circuit_cnf(num_gates=num_gates)
    assumption_sets = _assumption_sets(num_inputs, queries)
    best = 0.0
    for _ in range(repeats):
        solver = create_solver(backend)
        solver.add_clauses(clauses)
        solver.solve(assumptions=assumption_sets[0])  # warm-up
        before = solver.stats.propagations
        result, elapsed = Harness.timed(
            lambda: [solver.solve(assumptions=assumptions)
                     for assumptions in assumption_sets]
        )
        if not all(result):  # type: ignore[arg-type]
            raise RuntimeError(f"{backend}: BCP cascade query came back UNSAT")
        if samples_out is not None:
            samples_out.append(elapsed)
        best = max(best, (solver.stats.propagations - before) / elapsed)
    return best


def session_bcp_rate(
    backend: str, *, num_gates: int, queries: int, repeats: int = REPEATS,
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
        session = SolveSession(backend)
        session.solver.add_clauses(clauses)
        session.solve(assumptions=assumption_sets[0])  # warm-up
        before = session.solver.stats.propagations
        result, elapsed = Harness.timed(
            lambda: [session.solve(assumptions=assumptions)
                     for assumptions in assumption_sets]
        )
        if not all(result):  # type: ignore[arg-type]
            raise RuntimeError(f"{backend}: session BCP query came back UNSAT")
        if samples_out is not None:
            samples_out.append(elapsed)
        best = max(best, (session.solver.stats.propagations - before) / elapsed)
    return best


def search_rate(
    backend: str, *, instances: int, num_vars: int, conflicts: int, smoke: bool,
    answers_out: Optional[Dict[str, List[Optional[bool]]]] = None,
    samples_out: Optional[List[float]] = None,
    repeats: int = REPEATS,
) -> float:
    """Best propagations/second over the search corpus (raw solver)."""
    from repro.sat.session import create_solver

    corpus = search_instances(instances=instances, num_vars=num_vars, smoke=smoke)
    best = 0.0
    for repeat in range(repeats):
        propagations = 0
        answers: List[Optional[bool]] = []

        def sweep() -> None:
            nonlocal propagations
            for clauses in corpus:
                solver = create_solver(backend)
                solver.add_clauses(clauses)
                answers.append(solver.solve(conflict_limit=conflicts))
                propagations += solver.stats.propagations

        _, elapsed = Harness.timed(sweep)
        if samples_out is not None:
            samples_out.append(elapsed)
        best = max(best, propagations / elapsed)
        if repeat == 0 and answers_out is not None:
            answers_out[backend] = answers
    return best


def session_search_rate(
    backend: str, *, instances: int, num_vars: int, conflicts: int, smoke: bool,
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
            trace_to(trace_dir / f"search-{backend}-{repeat}.trace.jsonl")
            if trace_dir is not None
            else nullcontext()
        )
        propagations = 0

        def sweep() -> None:
            nonlocal propagations
            for clauses in corpus:
                session = SolveSession(backend)
                session.solver.add_clauses(clauses)
                session.solve(conflict_limit=conflicts)
                propagations += session.solver.stats.propagations

        with tracing:
            _, elapsed = Harness.timed(sweep)
        best = max(best, propagations / elapsed)
    return best


# ------------------------------------------------------------------- benches
@perf_benchmark(
    "solver.bcp_ratio",
    params=dict(num_gates=4000, queries=60),
    smoke=dict(num_gates=2000, queries=30),
    primary="cdcl_cascade",
)
def bcp_ratio(harness: Harness, params: Dict[str, object]) -> Dict[str, float]:
    """Both backends' propagation rates on a conflict-free BCP cascade."""
    num_gates, queries = int(params["num_gates"]), int(params["queries"])
    cdcl_samples: List[float] = []
    arena_samples: List[float] = []
    cdcl = bcp_rate("cdcl", num_gates=num_gates, queries=queries,
                    samples_out=cdcl_samples)
    arena = bcp_rate("cdcl-arena", num_gates=num_gates, queries=queries,
                     samples_out=arena_samples)
    harness.record_series("cdcl_cascade", cdcl_samples)
    harness.record_series("arena_cascade", arena_samples)
    return {"cdcl_rate": cdcl, "arena_rate": arena, "ratio": arena / cdcl}


@perf_benchmark(
    "solver.search_ratio",
    params=dict(instances=6, num_vars=120, conflicts=20_000),
    smoke=dict(instances=3, num_vars=100, conflicts=12_000),
    primary="cdcl_search",
)
def search_ratio(harness: Harness, params: Dict[str, object]) -> Dict[str, float]:
    """Both backends' end-to-end rates on conflict-heavy search.

    Definite answers (True/False) must be identical; a conflict-limited
    None may legitimately differ between backends, but not on this corpus
    with this budget — a disagreement is an error, not a measurement.
    """
    kwargs = dict(
        instances=int(params["instances"]), num_vars=int(params["num_vars"]),
        conflicts=int(params["conflicts"]), smoke=harness.smoke,
    )
    answers: Dict[str, List[Optional[bool]]] = {}
    cdcl_samples: List[float] = []
    arena_samples: List[float] = []
    cdcl = search_rate("cdcl", answers_out=answers, samples_out=cdcl_samples,
                       **kwargs)
    arena = search_rate("cdcl-arena", answers_out=answers,
                        samples_out=arena_samples, **kwargs)
    if answers["cdcl"] != answers["cdcl-arena"]:
        raise RuntimeError(
            "solver backends disagreed on the search corpus: "
            f"{answers['cdcl']} vs {answers['cdcl-arena']}")
    harness.record_series("cdcl_search", cdcl_samples)
    harness.record_series("arena_search", arena_samples)
    return {"cdcl_rate": cdcl, "arena_rate": arena, "ratio": arena / cdcl}


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
    from repro.sat.session import DEFAULT_BACKEND

    num_gates, queries = int(params["num_gates"]), int(params["queries"])
    session_samples: List[float] = []
    pairs = []
    for _ in range(REPEATS):
        raw = bcp_rate(DEFAULT_BACKEND, num_gates=num_gates, queries=queries,
                       repeats=1)
        session = session_bcp_rate(DEFAULT_BACKEND, num_gates=num_gates,
                                   queries=queries, repeats=1,
                                   samples_out=session_samples)
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
    from repro.sat.session import DEFAULT_BACKEND
    from repro.trace import read_trace_events

    kwargs = dict(
        instances=int(params["instances"]), num_vars=int(params["num_vars"]),
        conflicts=int(params["conflicts"]), smoke=harness.smoke,
    )
    untraced = session_search_rate(DEFAULT_BACKEND, **kwargs)
    with tempfile.TemporaryDirectory(prefix="repro-perf-trace-") as tmp:
        trace_dir = Path(tmp)
        traced = session_search_rate(DEFAULT_BACKEND, trace_dir=trace_dir, **kwargs)
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
