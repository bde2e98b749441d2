"""Outside-in per-layer timing: wrap each layer's public entry points.

A :class:`LayerTracer` replaces every entry point in :data:`ENTRY_POINTS`
with a thin wrapper that records one span (bucket, parent span, start, end)
per call, plus the counts the benchmark reports (read from the wrapped
call's arguments and result).  Nothing inside ``src/`` is edited and no
``repro`` tracing facility is used: the wrappers are installed from here,
on the class or module that defines each entry point and on every other
place the running program holds the same function object (a name imported
with ``from x import f``, a dict of attack callables, a job-kind registry).

Spans stay in memory.  :func:`fold_spans` turns them into per-bucket self
times (a span's duration minus its direct children's), which add up to the
time the spans cover; the benchmark divides that by the traced wall time to
report ``trace.coverage``.

An entry point that no longer exists is listed in ``missing`` instead of
failing the run; its time then lands in its caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

#: (bucket, "module:qualname") for every wrapped entry point, in pipeline
#: order.  A bucket is "<layer>" or "<layer>.<part>"; its self time is
#: reported as the per-layer metric ``<bucket>_s`` (``<layer>.self_s`` for a
#: bare layer name).
ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("benchmarks_data.load", "repro.benchmarks_data.synthezza:load_synthezza"),
    ("benchmarks_data.load", "repro.benchmarks_data.iscas89:load_iscas89"),
    ("benchmarks_data.load", "repro.benchmarks_data.itc99:load_itc99"),
    ("locking.lock", "repro.locking.cutelock_beh:CuteLockBeh.lock"),
    ("locking.lock", "repro.locking.cutelock_str:CuteLockStr.lock"),
    ("locking.lock", "repro.locking.baselines.sarlock:lock_sarlock"),
    ("locking.lock", "repro.locking.baselines.antisat:lock_antisat"),
    ("locking.lock", "repro.locking.baselines.ttlock:lock_ttlock"),
    ("locking.lock", "repro.locking.baselines.rll:lock_rll"),
    ("locking.lock", "repro.locking.baselines.dklock:lock_dklock"),
    ("locking.synthesize", "repro.locking.cutelock_beh:LockedFSM.synthesize"),
    ("netlist.validate", "repro.netlist.validate:validate_circuit"),
    ("synthesis.cost", "repro.synthesis.overhead:analyze_circuit"),
    ("synthesis.cost", "repro.synthesis.overhead:compare_overhead"),
    ("attacks", "repro.attacks.sat_attack:sat_attack"),
    ("attacks", "repro.attacks.appsat:appsat_attack"),
    ("attacks", "repro.attacks.double_dip:double_dip_attack"),
    ("attacks", "repro.attacks.bmc_attack:bmc_attack"),
    ("attacks", "repro.attacks.kc2:int_attack"),
    ("attacks", "repro.attacks.kc2:kc2_attack"),
    ("attacks", "repro.attacks.sequential_core:sequential_oracle_guided_attack"),
    ("attacks", "repro.attacks.rane:rane_attack"),
    ("attacks", "repro.attacks.fall:fall_attack"),
    ("attacks", "repro.attacks.dana:dana_attack"),
    ("attacks.encode", "repro.attacks.unroll:encode_unrolled"),
    ("attacks.encode", "repro.attacks.unroll:extend_unrolled"),
    ("attacks.encode", "repro.sat.tseitin:TseitinEncoder.encode"),
    ("sat.solve", "repro.sat.session:SolveSession.solve"),
    ("sat.sync", "repro.sat.session:SolveSession.sync"),
    ("engine.compile", "repro.engine.compiler:compile_circuit"),
    ("engine.sim", "repro.engine.equivalence:packed_random_equivalence_check"),
    ("engine.sim", "repro.engine.equivalence:packed_sequential_equivalence_check"),
    ("engine.sim", "repro.engine.equivalence:packed_candidate_key_filter"),
    ("engine.sim", "repro.engine.equivalence:packed_toggle_counts"),
    ("engine.sim", "repro.sim.equivalence:random_equivalence_check"),
    ("engine.sim", "repro.sim.equivalence:sequential_equivalence_check"),
    ("engine.oracle", "repro.engine.batch_oracle:BatchedCombinationalOracle.query_batch"),
    ("engine.oracle", "repro.engine.batch_oracle:BatchedSequentialOracle.query_batch"),
    ("campaign", "repro.campaign.executor:run_campaign"),
    ("campaign", "repro.campaign.executor:execute_job_attempt"),
    ("campaign.store", "repro.campaign.store:ResultStore.append"),
    ("experiments", "repro.experiments.table1:run_table1_cell"),
    ("experiments", "repro.experiments.table2:run_table2_cell"),
    ("experiments", "repro.experiments.table3:run_table3_cell"),
    ("experiments", "repro.experiments.table4:run_table4_cell"),
    ("experiments", "repro.experiments.table5:run_table5_cell"),
    ("experiments", "repro.experiments.figure4:run_figure4_cell"),
    ("experiments.report", "repro.experiments.table3:aggregate_table3"),
    ("experiments.report", "repro.experiments.table4:aggregate_table4"),
    ("experiments.report", "repro.experiments.table5:aggregate_table5"),
    ("experiments.report", "repro.experiments.figure4:aggregate_figure4"),
)

#: Solver ``add_clauses`` methods: counted (clauses synced), never timed,
#: because they only run inside ``SolveSession.sync``.
CLAUSE_SINKS: Tuple[str, ...] = (
    "repro.sat.solver:Solver.add_clauses",
    "repro.sat.arena:ArenaSolver.add_clauses",
)

#: Every bucket, so a layer the workload never enters still reports 0.
BUCKETS: Tuple[str, ...] = tuple(dict.fromkeys(bucket for bucket, _ in ENTRY_POINTS))

#: Attack telemetry counter -> the ``sat.*`` count it is summed into.
SOLVER_COUNTERS = {
    "conflicts": "sat.conflicts",
    "decisions": "sat.decisions",
    "propagations": "sat.propagations",
    "learned_clauses": "sat.learned",
}

#: Solver phase labels reported as ``sat.phase.<label>_s``.
PHASES = ("dis-search", "dip-search", "key-extract", "crunch", "synthesis", "verify", "confirm")

#: Every per-layer metric: (name, unit, which direction is better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sat.solve_s", "s", "lower"),
    ("sat.calls", "count", "lower"),
    ("sat.conflicts", "count", "lower"),
    ("sat.decisions", "count", "lower"),
    ("sat.propagations", "count", "lower"),
    ("sat.learned", "count", "lower"),
    ("sat.props_per_s", "1/s", "higher"),
    *((f"sat.phase.{phase}_s", "s", "lower") for phase in PHASES),
    ("sat.sync_s", "s", "lower"),
    ("sat.sync_clauses", "count", "lower"),
    ("sat.reload_ratio", "ratio", "lower"),
    ("sat.ms_per_call", "ms", "lower"),
    ("sat.limited", "count", "lower"),
    ("attacks.encode_s", "s", "lower"),
    ("attacks.encode_clauses", "count", "lower"),
    ("attacks.self_s", "s", "lower"),
    ("attacks.iterations", "count", "lower"),
    ("attacks.prefiltered_keys", "count", "higher"),
    ("engine.compile_s", "s", "lower"),
    ("engine.compiles", "count", "lower"),
    ("engine.sim_s", "s", "lower"),
    ("engine.oracle_s", "s", "lower"),
    ("engine.oracle_batches", "count", "lower"),
    ("engine.oracle_lanes", "count", "lower"),
    ("synthesis.cost_s", "s", "lower"),
    ("locking.lock_s", "s", "lower"),
    ("locking.synthesize_s", "s", "lower"),
    ("netlist.validate_s", "s", "lower"),
    ("benchmarks_data.load_s", "s", "lower"),
    ("campaign.store_s", "s", "lower"),
    ("campaign.appends", "count", "lower"),
    ("campaign.self_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.report_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


@dataclass
class Span:
    """One wrapped call: ``parent`` is the index of the enclosing span or -1."""

    bucket: str
    parent: int
    start: float
    end: float = 0.0
    tag: str = ""


@dataclass
class Fold:
    """Per-bucket self and outermost-inclusive seconds of a span list."""

    self_seconds: Dict[str, float] = field(default_factory=dict)
    inclusive_seconds: Dict[str, float] = field(default_factory=dict)
    tag_self_seconds: Dict[Tuple[str, str], float] = field(default_factory=dict)

    @property
    def covered_seconds(self) -> float:
        return sum(self.self_seconds.values())


def fold_spans(spans: Sequence[Span]) -> Fold:
    """Fold properly nested spans into self and inclusive times per bucket.

    Self time is a span's duration minus its direct children's durations, so
    self times over all spans add up to the duration of the root spans.
    Inclusive time counts a span only when no enclosing span has the same
    bucket, so a re-entrant call (``compare_overhead`` calling
    ``analyze_circuit``, ``bmc_attack`` calling the shared attack skeleton)
    is not counted twice.
    """
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_seconds[span.parent] += span.end - span.start
    fold = Fold()
    for index, span in enumerate(spans):
        duration = span.end - span.start
        own = duration - child_seconds[index]
        fold.self_seconds[span.bucket] = fold.self_seconds.get(span.bucket, 0.0) + own
        key = (span.bucket, span.tag)
        fold.tag_self_seconds[key] = fold.tag_self_seconds.get(key, 0.0) + own
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].bucket != span.bucket:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            fold.inclusive_seconds[span.bucket] = (
                fold.inclusive_seconds.get(span.bucket, 0.0) + duration
            )
    return fold


def _resolve(target: str) -> Tuple[object, str]:
    """(owner, attribute) for ``"module:qualname"``; raises if it is gone."""
    module_name, _, qualname = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for name in path:
        owner = getattr(owner, name)
    if not callable(getattr(owner, attribute, None)):
        raise AttributeError(f"{target} is not a callable attribute")
    return owner, attribute


class LayerTracer:
    """Records spans and counts for one traced run (see the module docstring)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._active: Dict[str, int] = {}

    # -------------------------------------------------------------- counts
    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _on_result(self, bucket: str, call: Tuple, kwargs: Dict, result: object) -> str:
        """Counts from one finished call; returns the span tag."""
        if bucket == "sat.solve":
            self.count("sat.calls")
            if result is None:
                self.count("sat.limited")
            return str(kwargs.get("phase", "solve"))
        if bucket == "engine.oracle":
            self.count("engine.oracle_batches")
            self.count("engine.oracle_lanes", len(call[1]) if len(call) > 1 else 0)
        elif bucket == "engine.compile":
            self.count("engine.compiles")
        elif bucket == "campaign.store":
            self.count("campaign.appends")
        elif bucket == "attacks" and self._active.get("attacks", 0) == 0:
            # Outermost attack only: bmc/int/kc2 return the shared
            # skeleton's result object, which must be counted once.
            self.count("attacks.iterations", getattr(result, "iterations", 0))
            details = getattr(result, "details", None) or {}
            self.count("attacks.prefiltered_keys", int(details.get("prefiltered_keys", 0)))
            solver = details.get("solver") or {}
            for field_name, metric in SOLVER_COUNTERS.items():
                self.count(metric, int(solver.get(field_name, 0)))
        return ""

    # ------------------------------------------------------------ wrapping
    def _wrap(self, bucket: str, function: Callable) -> Callable:
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter
        encodes = bucket == "attacks.encode"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(bucket, stack[-1] if stack else -1, 0.0)
            spans.append(span)
            stack.append(index)
            active[bucket] = active.get(bucket, 0) + 1
            # Nested encode calls grow the same encoder: count the outermost.
            counted = encodes and active[bucket] == 1
            before = _encoded_clauses(args, kwargs) if counted else 0
            span.start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                active[bucket] -= 1
            if counted:
                self.count("attacks.encode_clauses", _encoded_clauses(args, kwargs) - before)
            elif bucket == "sat.sync":
                self._count_encoded(args[0])
            span.tag = self._on_result(bucket, args, kwargs, result)
            return result

        return wrapper

    def _count_encoded(self, session) -> None:
        """Clauses a session's encoder gained since the session's last sync."""
        total = len(session.encoder.cnf.clauses)
        seen = session.__dict__.get("_perfbench_encoded", 0)
        session.__dict__["_perfbench_encoded"] = max(seen, total)
        self.count("sat.encoded_clauses", max(0, total - seen))

    def _wrap_sink(self, function: Callable) -> Callable:
        @functools.wraps(function)
        def sink(solver, clauses, *args, **kwargs):
            if not hasattr(clauses, "__len__"):
                clauses = list(clauses)
            self.count("sat.sync_clauses", len(clauses))
            return function(solver, clauses, *args, **kwargs)

        return sink

    def install(self, callers: Sequence[object] = ()) -> None:
        """Wrap every entry point and rebind every by-value reference to it.

        References are rebound in every loaded ``repro`` module and in the
        ``callers`` modules (the benchmark's own workload code).
        """
        replacements: Dict[int, Tuple[object, Callable]] = {}
        targets = list(ENTRY_POINTS) + [("", target) for target in CLAUSE_SINKS]
        for bucket, target in targets:
            try:
                owner, attribute = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(bucket, original) if bucket else self._wrap_sink(original)
            setattr(owner, attribute, wrapper)
            replacements[id(original)] = (original, wrapper)
        modules = [module for module in list(sys.modules.values())
                   if getattr(module, "__name__", "").split(".")[0] == "repro"]
        for module in modules + list(callers):
            _rebind(vars(module), replacements)


def _encoded_clauses(args: Tuple, kwargs: Dict) -> int:
    """Clause count of the encoder an encode call grows.

    ``TseitinEncoder.encode(self, ...)`` and ``encode_unrolled(encoder, ...)``
    / ``extend_unrolled(encoder, ...)`` all take the encoder first.
    """
    encoder = args[0] if args else kwargs["encoder"]
    return len(encoder.cnf.clauses)


def _rebind(namespace: Dict[str, object], replacements: Dict[int, Tuple[object, Callable]]) -> None:
    """Swap by-value references held in a module namespace or its containers."""
    for name, value in list(namespace.items()):
        hit = replacements.get(id(value))
        if hit is not None and hit[0] is value:
            namespace[name] = hit[1]
        elif isinstance(value, dict) and not name.startswith("__"):
            for key, item in list(value.items()):
                hit = replacements.get(id(item))
                if hit is not None and hit[0] is item:
                    value[key] = hit[1]
        elif isinstance(value, list):
            for position, item in enumerate(value):
                hit = replacements.get(id(item))
                if hit is not None and hit[0] is item:
                    value[position] = hit[1]


def layer_metrics(tracer: LayerTracer, wall_seconds: float) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead`` (it needs an untraced run)."""
    fold = fold_spans(tracer.spans)
    counts = tracer.counts
    metrics = {
        f"{bucket}_s" if "." in bucket else f"{bucket}.self_s": fold.self_seconds.get(bucket, 0.0)
        for bucket in BUCKETS
    }
    metrics.update({name: counts.get(name, 0) for name, unit, _ in PER_LAYER if unit == "count"})
    solve_s, calls = metrics["sat.solve_s"], metrics["sat.calls"]
    encoded = counts.get("sat.encoded_clauses", 0)
    metrics.update({
        "sat.props_per_s": metrics["sat.propagations"] / solve_s if solve_s else 0.0,
        "sat.reload_ratio": metrics["sat.sync_clauses"] / encoded if encoded else 0.0,
        "sat.ms_per_call": (
            1000.0 * fold.inclusive_seconds.get("sat.solve", 0.0) / calls if calls else 0.0
        ),
        "trace.coverage": fold.covered_seconds / wall_seconds if wall_seconds else 0.0,
    })
    for phase in PHASES:
        metrics[f"sat.phase.{phase}_s"] = fold.tag_self_seconds.get(("sat.solve", phase), 0.0)
    return metrics
