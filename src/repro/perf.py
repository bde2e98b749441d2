"""Timers and solver workloads for the acceptance bars.

The seven acceptance bars are plain pytest tests in ``benchmarks/``
(``bench_engine_throughput.py``, ``bench_solver_throughput.py``,
``bench_campaign_throughput.py``, ``bench_campaign_store.py``).  They time
through :func:`timed` and :func:`sustained_rate`, which read only
``time.perf_counter``.  This module is in ``repro check lint`` R001 scope,
so a wall clock can never enter a bar's measurement.

:func:`layered_circuit_cnf`, :func:`pigeonhole` and :func:`search_instances`
build the solver bars' workloads; ``tests/property/test_solver_golden.py``
pins the solver's counters on the same instances.
"""

from __future__ import annotations

import random
import time
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")


def timed(fn: Callable[[], T]) -> Tuple[T, float]:
    """Run ``fn`` once, returning ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def sustained_rate(
    fn: Callable[[], object],
    *,
    units: float,
    repeats: int = 3,
    min_seconds: float = 0.05,
) -> float:
    """Best-of-``repeats`` sustained rate of ``fn`` in ``units`` per call.

    Each repeat loops ``fn`` until at least ``min_seconds`` of measured
    time has accumulated, then computes ``units * rounds / elapsed``; the
    best repeat wins, which shrugs off one-sided scheduler noise.
    """
    best = 0.0
    for _ in range(max(1, repeats)):
        rounds, elapsed = 0, 0.0
        while elapsed < min_seconds:
            start = time.perf_counter()
            fn()
            elapsed += time.perf_counter() - start
            rounds += 1
        best = max(best, units * rounds / elapsed)
    return best


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
