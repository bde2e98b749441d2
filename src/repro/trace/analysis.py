"""Trace analysis: per-phase summaries, rate timelines, A/B diffs of two traces.

Everything here consumes the event vocabulary in ``TRACE_FORMAT.md`` and is
deliberately tolerant of partial traces — a killed run's trace still
summarises from whatever events survived.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.trace.reader import load_trace

Event = Dict[str, object]
Trace = Dict[str, object]

#: Counter-delta fields carried by ``solve-end`` events.
_DELTA_FIELDS = ("conflicts", "decisions", "propagations", "learned", "restarts")


def _as_trace(trace: Union[str, Path, Trace]) -> Trace:
    if isinstance(trace, (str, Path)):
        return load_trace(trace)
    return trace


def _num(value: object, default: float = 0.0) -> float:
    return float(value) if isinstance(value, (int, float)) else default


def ascii_bar(fraction: float, width: int = 24) -> str:
    """Proportional ``#`` bar; any positive share renders at least one mark."""
    fraction = max(0.0, min(1.0, fraction))
    cells = int(round(fraction * width))
    if fraction > 0 and cells == 0:
        cells = 1
    return "#" * cells


# --------------------------------------------------------------------- summary
def summarize_trace(trace: Union[str, Path, Trace]) -> Dict[str, object]:
    """Per-phase time/counter breakdown of one trace.

    Built from ``solve-end`` events (each carries the call's wall seconds
    and counter deltas), so the per-phase seconds reconcile with
    ``SolverTelemetry.phase_seconds`` — both are sums of the same per-call
    measurements.
    """
    trace = _as_trace(trace)
    events: Sequence[Event] = trace["events"]  # type: ignore[assignment]
    phases: Dict[str, Dict[str, float]] = {}
    totals: Dict[str, float] = {name: 0.0 for name in _DELTA_FIELDS}
    answers = {"sat": 0, "unsat": 0, "limited": 0}
    calls = 0
    backends: List[str] = []
    sessions = 0
    attack_rounds = 0
    span = 0.0
    for event in events:
        span = max(span, _num(event.get("t")))
        kind = event.get("kind")
        if kind == "session":
            sessions += 1
            backend = event.get("backend")
            if isinstance(backend, str) and backend not in backends:
                backends.append(backend)
        elif kind == "attack-round":
            attack_rounds += 1
        elif kind == "solve-end":
            calls += 1
            phase = str(event.get("phase", "solve"))
            bucket = phases.setdefault(
                phase,
                {"seconds": 0.0, "calls": 0.0, "sat": 0.0, "unsat": 0.0,
                 "limited": 0.0, **{name: 0.0 for name in _DELTA_FIELDS}},
            )
            bucket["seconds"] += _num(event.get("seconds"))
            bucket["calls"] += 1
            answer = str(event.get("answer", "limited"))
            if answer in answers:
                answers[answer] += 1
                bucket[answer] += 1
            for name in _DELTA_FIELDS:
                delta = _num(event.get(name))
                bucket[name] += delta
                totals[name] += delta
    solve_seconds = sum(bucket["seconds"] for bucket in phases.values())
    return {
        "path": trace.get("path"),
        "meta": trace.get("meta", {}),
        "backends": backends,
        "sessions": sessions,
        "attack_rounds": attack_rounds,
        "calls": calls,
        "answers": answers,
        "span_seconds": span,
        "solve_seconds": solve_seconds,
        "totals": totals,
        "phases": phases,
    }


def render_summary(summary: Mapping[str, object], *, width: int = 24) -> str:
    """Human-readable per-phase breakdown with proportional bars."""
    phases: Mapping[str, Mapping[str, float]] = summary["phases"]  # type: ignore[assignment]
    solve_seconds = _num(summary.get("solve_seconds"))
    meta: Mapping[str, object] = summary.get("meta") or {}  # type: ignore[assignment]
    lines: List[str] = []
    path = summary.get("path")
    if path:
        lines.append(f"trace: {path}")
    backends = summary.get("backends") or []
    header = (
        f"backend={'/'.join(backends) if backends else '?'}"  # type: ignore[arg-type]
        f" sessions={summary.get('sessions', 0)}"
        f" calls={summary.get('calls', 0)}"
        f" attack-rounds={summary.get('attack_rounds', 0)}"
        f" stride={meta.get('stride', '?')}"
    )
    lines.append(header)
    answers: Mapping[str, int] = summary.get("answers") or {}  # type: ignore[assignment]
    totals: Mapping[str, float] = summary.get("totals") or {}  # type: ignore[assignment]
    lines.append(
        "answers: "
        + " ".join(f"{name}={answers.get(name, 0)}" for name in ("sat", "unsat", "limited"))
    )
    lines.append(
        "totals: "
        + " ".join(f"{name}={int(totals.get(name, 0))}" for name in _DELTA_FIELDS)
        + f" solve_seconds={solve_seconds:.3f}"
        + f" span_seconds={_num(summary.get('span_seconds')):.3f}"
    )
    if not phases:
        lines.append("(no solve-end events: empty or truncated trace)")
        return "\n".join(lines)
    name_width = max(len("phase"), max(len(name) for name in phases))
    lines.append(
        f"{'phase':<{name_width}}  {'seconds':>9}  {'share':>6}  "
        f"{'calls':>6}  {'conflicts':>9}  bar"
    )
    ordered = sorted(
        phases.items(), key=lambda item: (-item[1]["seconds"], item[0])
    )
    for name, bucket in ordered:
        share = bucket["seconds"] / solve_seconds if solve_seconds > 0 else 0.0
        lines.append(
            f"{name:<{name_width}}  {bucket['seconds']:>9.3f}  {share:>6.1%}  "
            f"{int(bucket['calls']):>6}  {int(bucket['conflicts']):>9}  "
            f"{ascii_bar(share, width)}"
        )
    return "\n".join(lines)


# -------------------------------------------------------------------- timeline
def timeline_buckets(
    trace: Union[str, Path, Trace], *, buckets: int = 20
) -> List[Dict[str, float]]:
    """Conflict-rate / learned-clause-rate buckets across the trace span.

    Sampled ``conflict`` events carry *cumulative* solver counters, so the
    per-bucket activity is the difference of consecutive cumulative values —
    exact regardless of the sampling stride.  A negative difference means a
    fresh solver started (session reset); the event then contributes its
    sampling stride as the best available estimate.
    """
    if buckets < 1:
        raise ValueError(f"buckets must be >= 1, got {buckets}")
    trace = _as_trace(trace)
    events: Sequence[Event] = trace["events"]  # type: ignore[assignment]
    meta: Mapping[str, object] = trace.get("meta") or {}  # type: ignore[assignment]
    stride = int(_num(meta.get("stride"), 1.0)) or 1
    span = max((_num(event.get("t")) for event in events), default=0.0)
    if span <= 0.0:
        span = 1e-9
    width = span / buckets
    rows = [
        {
            "t0": index * width,
            "t1": (index + 1) * width,
            "conflicts": 0.0,
            "learned": 0.0,
            "restarts": 0.0,
        }
        for index in range(buckets)
    ]

    def _bucket(t: float) -> Dict[str, float]:
        return rows[min(buckets - 1, int(t / width))]

    prev_conflicts: Optional[float] = None
    prev_learned: Optional[float] = None
    for event in events:
        kind = event.get("kind")
        if kind == "conflict":
            conflicts = _num(event.get("conflicts"))
            learned = _num(event.get("learned"))
            d_conf = conflicts - prev_conflicts if prev_conflicts is not None else conflicts
            d_learn = learned - prev_learned if prev_learned is not None else learned
            if d_conf <= 0:  # fresh solver: cumulative counters restarted
                d_conf = float(stride)
                d_learn = float(stride)
            prev_conflicts, prev_learned = conflicts, learned
            row = _bucket(_num(event.get("t")))
            row["conflicts"] += d_conf
            row["learned"] += max(0.0, d_learn)
        elif kind == "restart":
            _bucket(_num(event.get("t")))["restarts"] += 1
    for row in rows:
        bucket_width = row["t1"] - row["t0"]
        row["conflict_rate"] = row["conflicts"] / bucket_width if bucket_width else 0.0
        row["learned_rate"] = row["learned"] / bucket_width if bucket_width else 0.0
    return rows


def render_timeline(
    trace: Union[str, Path, Trace], *, buckets: int = 20, width: int = 24
) -> str:
    """Bucketed conflict-rate view: one bar-scaled line per time slice."""
    trace = _as_trace(trace)
    rows = timeline_buckets(trace, buckets=buckets)
    peak = max((row["conflict_rate"] for row in rows), default=0.0)
    lines = [f"trace: {trace.get('path')}"] if trace.get("path") else []
    lines.append(
        f"{'slice':>14}  {'confl/s':>9}  {'learn/s':>9}  {'restarts':>8}  bar"
    )
    for row in rows:
        share = row["conflict_rate"] / peak if peak > 0 else 0.0
        lines.append(
            f"{row['t0']:>6.2f}-{row['t1']:<6.2f}  "
            f"{row['conflict_rate']:>9.1f}  {row['learned_rate']:>9.1f}  "
            f"{int(row['restarts']):>8}  {ascii_bar(share, width)}"
        )
    if peak == 0.0:
        lines.append("(no sampled conflict events: quiet solve or stride too large)")
    return "\n".join(lines)


# ------------------------------------------------------------------------ diff
#: Seconds below this on both sides compare as zero drift — sub-millisecond
#: phases are pure timer noise and would otherwise dominate ``max_drift``.
_SECONDS_FLOOR = 1e-3


def _relative_drift(a: float, b: float, *, floor: float = 0.0) -> float:
    scale = max(abs(a), abs(b))
    if scale <= floor:
        return 0.0
    return abs(b - a) / scale


def diff_traces(
    trace_a: Union[str, Path, Trace], trace_b: Union[str, Path, Trace]
) -> Dict[str, object]:
    """Backend A/B comparison of two traces of the same job.

    Compares per-phase seconds and total counters; ``max_drift`` is the
    largest relative difference across every compared quantity, so two
    identical traces report exactly ``0.0``.
    """
    summary_a = summarize_trace(trace_a)
    summary_b = summarize_trace(trace_b)
    phases_a: Mapping[str, Mapping[str, float]] = summary_a["phases"]  # type: ignore[assignment]
    phases_b: Mapping[str, Mapping[str, float]] = summary_b["phases"]  # type: ignore[assignment]
    phase_rows: List[Dict[str, object]] = []
    max_drift = 0.0
    for name in sorted(set(phases_a) | set(phases_b)):
        sec_a = phases_a.get(name, {}).get("seconds", 0.0)
        sec_b = phases_b.get(name, {}).get("seconds", 0.0)
        conf_a = phases_a.get(name, {}).get("conflicts", 0.0)
        conf_b = phases_b.get(name, {}).get("conflicts", 0.0)
        drift = max(
            _relative_drift(sec_a, sec_b, floor=_SECONDS_FLOOR),
            _relative_drift(conf_a, conf_b),
        )
        max_drift = max(max_drift, drift)
        phase_rows.append(
            {
                "phase": name,
                "a_seconds": sec_a,
                "b_seconds": sec_b,
                "a_conflicts": conf_a,
                "b_conflicts": conf_b,
                "drift": drift,
            }
        )
    totals_a: Mapping[str, float] = summary_a["totals"]  # type: ignore[assignment]
    totals_b: Mapping[str, float] = summary_b["totals"]  # type: ignore[assignment]
    totals: Dict[str, Dict[str, float]] = {}
    for name in _DELTA_FIELDS:
        a_val, b_val = totals_a.get(name, 0.0), totals_b.get(name, 0.0)
        drift = _relative_drift(a_val, b_val)
        max_drift = max(max_drift, drift)
        totals[name] = {"a": a_val, "b": b_val, "drift": drift}
    sec_drift = _relative_drift(
        _num(summary_a.get("solve_seconds")),
        _num(summary_b.get("solve_seconds")),
        floor=_SECONDS_FLOOR,
    )
    max_drift = max(max_drift, sec_drift)
    return {
        "a": {"path": summary_a.get("path"), "backends": summary_a.get("backends")},
        "b": {"path": summary_b.get("path"), "backends": summary_b.get("backends")},
        "phases": phase_rows,
        "totals": totals,
        "solve_seconds": {
            "a": _num(summary_a.get("solve_seconds")),
            "b": _num(summary_b.get("solve_seconds")),
            "drift": sec_drift,
        },
        "max_drift": max_drift,
    }


def render_diff(diff: Mapping[str, object]) -> str:
    """Human-readable A/B table for :func:`diff_traces` output."""
    a: Mapping[str, object] = diff["a"]  # type: ignore[assignment]
    b: Mapping[str, object] = diff["b"]  # type: ignore[assignment]

    def _side(side: Mapping[str, object]) -> str:
        backends = side.get("backends") or []
        label = "/".join(backends) if backends else "?"  # type: ignore[arg-type]
        return f"{side.get('path')} [{label}]"

    lines = [f"A: {_side(a)}", f"B: {_side(b)}"]
    phases: Sequence[Mapping[str, object]] = diff["phases"]  # type: ignore[assignment]
    if phases:
        name_width = max(len("phase"), max(len(str(row["phase"])) for row in phases))
        lines.append(
            f"{'phase':<{name_width}}  {'A sec':>9}  {'B sec':>9}  "
            f"{'A confl':>9}  {'B confl':>9}  {'drift':>6}"
        )
        for row in phases:
            lines.append(
                f"{str(row['phase']):<{name_width}}  "
                f"{_num(row['a_seconds']):>9.3f}  {_num(row['b_seconds']):>9.3f}  "
                f"{int(_num(row['a_conflicts'])):>9}  "
                f"{int(_num(row['b_conflicts'])):>9}  "
                f"{_num(row['drift']):>6.1%}"
            )
    totals: Mapping[str, Mapping[str, float]] = diff["totals"]  # type: ignore[assignment]
    lines.append(
        "totals: "
        + " ".join(
            f"{name}={int(entry['a'])}/{int(entry['b'])}"
            for name, entry in totals.items()
        )
    )
    seconds: Mapping[str, float] = diff["solve_seconds"]  # type: ignore[assignment]
    lines.append(
        f"solve_seconds: A={seconds['a']:.3f} B={seconds['b']:.3f} "
        f"drift={seconds['drift']:.1%}"
    )
    lines.append(f"max drift: {_num(diff.get('max_drift')):.1%}")
    return "\n".join(lines)
