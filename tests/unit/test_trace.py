"""Unit tests for the event-trace subsystem (:mod:`repro.trace`).

Covers the writer/reader round trip for every event kind, the shared
torn-tail tolerance policy, the activation stack, solver-hook integration
(including the telemetry reconciliation the trace summary must satisfy), the
attacks' ``attack-round`` markers, timeline bucketing, A/B diffs, the
flame-bar renderer and the campaign-side wiring (executor trace paths, live
status line).
"""

import json
import warnings

import pytest

from repro.attacks import double_dip_attack, sat_attack
from repro.benchmarks_data.iscas89 import s27_circuit
from repro.campaign.executor import execute_job_attempt, job_trace_path
from repro.campaign.progress import CampaignStatus, campaign_status, render_status
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import ResultStore
from repro.locking.baselines.sarlock import lock_sarlock
from repro.sat.session import SolveSession, SolverTelemetry, capture_solver_telemetry
from repro.trace import (
    DEFAULT_STRIDE,
    TRACE_SCHEMA_VERSION,
    TraceWriter,
    active_tracer,
    diff_traces,
    load_trace,
    read_trace_events,
    render_diff,
    render_summary,
    render_timeline,
    summarize_trace,
    timeline_buckets,
    trace_event,
    trace_to,
)
from repro.trace.analysis import ascii_bar


def pigeonhole(holes, pigeons):
    """Unsatisfiable pigeonhole CNF — guaranteed conflicts and restarts."""
    clauses = []

    def var(p, h):
        return p * holes + h + 1

    for p in range(pigeons):
        clauses.append([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


#: One representative event per non-meta kind in the schema-1 vocabulary.
EVENT_VOCABULARY = [
    ("session", {"session": 1, "backend": "cdcl"}),
    ("solve-begin", {"session": 1, "call": 1, "phase": "dip-search",
                     "assumptions": 12}),
    ("solve-end", {"session": 1, "call": 1, "phase": "dip-search",
                   "answer": "sat", "seconds": 0.125, "conflicts": 40,
                   "decisions": 90, "propagations": 1200, "learned": 40,
                   "restarts": 2}),
    ("conflict", {"conflicts": 64, "decisions": 120, "propagations": 5000,
                  "learned": 64, "level": 7, "lbd": 3, "learned_len": 9}),
    ("restart", {"restarts": 3, "conflicts": 192}),
    ("attack-round", {"attack": "sat", "round": 2, "harvested": 4,
                      "iterations": 6}),
]


class TestWriterReaderRoundTrip:
    def test_every_event_kind_round_trips_identically(self, tmp_path):
        path = tmp_path / "round.trace.jsonl"
        with TraceWriter(path, stride=8, metadata={"job": "k1"}) as writer:
            for kind, fields in EVENT_VOCABULARY:
                writer.emit(kind, **fields)
        events = read_trace_events(path)
        assert [event["kind"] for event in events] == (
            ["meta"] + [kind for kind, _ in EVENT_VOCABULARY]
        )
        meta = events[0]
        assert meta["schema"] == TRACE_SCHEMA_VERSION
        assert meta["stride"] == 8
        assert meta["job"] == "k1"
        for event, (kind, fields) in zip(events[1:], EVENT_VOCABULARY):
            # Every written field survives byte-exactly; the only additions
            # are the envelope ("kind" plus the monotonic timestamp).
            assert {key: event[key] for key in fields} == fields
            assert set(event) == set(fields) | {"kind", "t"}
            assert isinstance(event["t"], float) and event["t"] >= 0.0
        # Timestamps are monotonic in file order.
        stamps = [event["t"] for event in events]
        assert stamps == sorted(stamps)

    def test_meta_event_is_always_first(self, tmp_path):
        path = tmp_path / "meta.trace.jsonl"
        TraceWriter(path).close()
        events = read_trace_events(path)
        assert len(events) == 1 and events[0]["kind"] == "meta"
        assert events[0]["stride"] == DEFAULT_STRIDE

    def test_stride_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="stride"):
            TraceWriter(tmp_path / "bad.trace.jsonl", stride=0)

    def test_emit_after_close_is_a_noop(self, tmp_path):
        path = tmp_path / "closed.trace.jsonl"
        writer = TraceWriter(path)
        writer.close()
        writer.emit("restart", restarts=1, conflicts=1)
        assert len(read_trace_events(path)) == 1  # just the meta header

    def test_load_trace_extracts_meta(self, tmp_path):
        path = tmp_path / "load.trace.jsonl"
        with TraceWriter(path, metadata={"attack": "sat"}):
            pass
        trace = load_trace(path)
        assert trace["path"] == str(path)
        assert trace["meta"]["attack"] == "sat"
        assert trace["events"][0] is trace["meta"]

    def test_newer_schema_is_refused(self, tmp_path):
        path = tmp_path / "future.trace.jsonl"
        path.write_text(
            json.dumps({"kind": "meta", "t": 0.0,
                        "schema": TRACE_SCHEMA_VERSION + 1, "stride": 1})
            + "\n"
        )
        with pytest.raises(ValueError, match="newer than supported"):
            load_trace(path)


class TestTornTailTolerance:
    """Trace files share the store's append-only JSONL failure model."""

    def _write_events(self, path, count=3):
        with TraceWriter(path, stride=1) as writer:
            for index in range(count):
                writer.emit("restart", restarts=index + 1, conflicts=index)

    def test_truncated_trailing_line_is_tolerated_silently(self, tmp_path):
        path = tmp_path / "torn.trace.jsonl"
        self._write_events(path)
        with path.open("a") as handle:
            handle.write('{"kind": "conflict", "confl')  # killed mid-write
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a trailing tear must NOT warn
            events = read_trace_events(path)
        assert [event["kind"] for event in events] == (
            ["meta"] + ["restart"] * 3
        )

    def test_midfile_corruption_warns_with_line_number(self, tmp_path):
        path = tmp_path / "corrupt.trace.jsonl"
        self._write_events(path)
        lines = path.read_text().splitlines()
        lines.insert(1, '{"kind": "restart"!! garbage')
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match=r"corrupt\.trace\.jsonl:2: dropping"):
            events = read_trace_events(path)
        # Only the corrupt line is dropped; events around it survive.
        assert [event["kind"] for event in events] == (
            ["meta"] + ["restart"] * 3
        )

    def test_non_object_line_warns_and_is_dropped(self, tmp_path):
        path = tmp_path / "scalar.trace.jsonl"
        self._write_events(path, count=1)
        lines = path.read_text().splitlines()
        lines.insert(1, '[1, 2, 3]')
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="non-object trace event"):
            events = read_trace_events(path)
        assert [event["kind"] for event in events] == ["meta", "restart"]


class TestActivationStack:
    def test_trace_to_pushes_and_pops(self, tmp_path):
        assert active_tracer() is None
        with trace_to(tmp_path / "outer.trace.jsonl") as outer:
            assert active_tracer() is outer
            with trace_to(tmp_path / "inner.trace.jsonl") as inner:
                assert active_tracer() is inner  # innermost wins
            assert active_tracer() is outer
        assert active_tracer() is None

    def test_trace_event_is_noop_when_off(self):
        assert active_tracer() is None
        trace_event("attack-round", attack="sat", round=1)  # must not raise

    def test_trace_event_routes_to_innermost_writer(self, tmp_path):
        path = tmp_path / "routed.trace.jsonl"
        with trace_to(path):
            trace_event("attack-round", attack="appsat", round=3, harvested=2)
        events = read_trace_events(path)
        assert events[-1]["kind"] == "attack-round"
        assert events[-1]["attack"] == "appsat"
        assert events[-1]["round"] == 3


class TestAttackRoundMarkers:
    @pytest.mark.parametrize("attack", [sat_attack, double_dip_attack])
    def test_one_marker_per_dip_search(self, tmp_path, attack):
        locked = lock_sarlock(s27_circuit(), num_key_bits=3, seed=1)
        path = tmp_path / "dip.trace.jsonl"
        with trace_to(path):
            result = attack(locked, time_limit=30.0)
        events = read_trace_events(path)
        searches = [e for e in events
                    if e["kind"] == "solve-begin" and e["phase"] == "dip-search"]
        markers = [e for e in events if e["kind"] == "attack-round"]
        assert searches and len(markers) == len(searches)
        assert {e["attack"] for e in markers} == {result.attack}
        assert [e["round"] for e in markers] == list(range(1, len(markers) + 1))
        assert {e["harvested"] for e in markers} <= {0, 1}
        # The last search found no DIP; `iterations` ends at the result's.
        assert markers[-1]["harvested"] == 0
        assert markers[-1]["iterations"] == result.iterations


class TestSolverHooks:
    def test_conflict_and_restart_events(self, tmp_path):
        path = tmp_path / "pigeonhole.trace.jsonl"
        with trace_to(path, stride=1):
            session = SolveSession()
            session.solver.add_clauses(pigeonhole(6, 7))
            assert session.solve(phase="pigeonhole") is False
        events = read_trace_events(path)
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "meta" and kinds[1] == "session"
        assert events[1]["backend"] == "cdcl"
        conflicts = [event for event in events if event["kind"] == "conflict"]
        restarts = [event for event in events if event["kind"] == "restart"]
        assert conflicts and restarts
        # Stride 1 records every conflict: cumulative counters step by one
        # and each event carries a plausible LBD within the learned clause.
        for index, event in enumerate(conflicts, start=1):
            assert event["conflicts"] == index
            assert 1 <= event["lbd"] <= max(1, event["learned_len"])
            assert event["level"] >= 0
        end = next(event for event in events if event["kind"] == "solve-end")
        assert end["phase"] == "pigeonhole"
        assert end["answer"] == "unsat"
        # The terminal top-level conflict proves UNSAT before reaching
        # conflict analysis, so it counts but is never sampled.
        assert len(conflicts) <= end["conflicts"] <= len(conflicts) + 1
        assert end["restarts"] == len(restarts)

    def test_stride_samples_every_nth_conflict(self, tmp_path):
        path = tmp_path / "stride.trace.jsonl"
        with trace_to(path, stride=16):
            session = SolveSession()
            session.solver.add_clauses(pigeonhole(6, 7))
            session.solve()
        conflicts = [
            event for event in read_trace_events(path)
            if event["kind"] == "conflict"
        ]
        assert conflicts, "pigeonhole solve produced no sampled conflicts"
        assert all(event["conflicts"] % 16 == 0 for event in conflicts)

    def test_no_tracer_attaches_nothing(self):
        session = SolveSession()
        assert session.tracer is None
        assert session.solver.trace is None

    def test_summary_reconciles_with_telemetry(self, tmp_path):
        """`trace summary` per-phase seconds == SolverTelemetry.phase_seconds.

        Both are sums of the same per-call wall-clock measurements (the trace
        side rounded to microseconds), so they must agree to within rounding.
        """
        path = tmp_path / "reconcile.trace.jsonl"
        with capture_solver_telemetry() as telemetry, trace_to(path):
            session = SolveSession()
            session.solver.add_clauses(pigeonhole(6, 7))
            session.solve(phase="verify")
            fresh = SolveSession()
            fresh.solver.add_clauses(pigeonhole(5, 6))
            fresh.solve(phase="dip-search")
            fresh.solve(assumptions=[1], phase="dip-search")
        summary = summarize_trace(path)
        assert set(summary["phases"]) == set(telemetry.phase_seconds)
        for phase, seconds in telemetry.phase_seconds.items():
            traced = summary["phases"][phase]["seconds"]
            assert traced == pytest.approx(seconds, abs=1e-4)
        assert summary["solve_seconds"] == pytest.approx(
            telemetry.solve_seconds, abs=1e-4
        )
        # Counter totals reconcile exactly — they are integer deltas.
        assert summary["totals"]["conflicts"] == telemetry.conflicts
        assert summary["totals"]["decisions"] == telemetry.decisions
        assert summary["totals"]["propagations"] == telemetry.propagations
        assert summary["totals"]["learned"] == telemetry.learned_clauses
        assert summary["totals"]["restarts"] == telemetry.restarts
        assert summary["calls"] == telemetry.solve_calls == 3
        assert summary["sessions"] == 2
        assert summary["answers"] == {"sat": 0, "unsat": 3, "limited": 0}


class TestAnalysis:
    def _traced_solve(self, tmp_path, name="a"):
        path = tmp_path / f"{name}.trace.jsonl"
        with trace_to(path, stride=1):
            session = SolveSession()
            session.solver.add_clauses(pigeonhole(6, 7))
            session.solve(phase="verify")
        return path

    def test_diff_identical_traces_zero_drift(self, tmp_path):
        path = self._traced_solve(tmp_path)
        diff = diff_traces(path, path)
        assert diff["max_drift"] == 0.0
        assert all(row["drift"] == 0.0 for row in diff["phases"])
        assert all(entry["drift"] == 0.0 for entry in diff["totals"].values())
        text = render_diff(diff)
        assert "max drift: 0.0%" in text

    def test_diff_reports_counter_drift(self, tmp_path):
        a = tmp_path / "a.trace.jsonl"
        b = tmp_path / "b.trace.jsonl"
        for path, conflicts in ((a, 100), (b, 150)):
            with TraceWriter(path) as writer:
                writer.emit("solve-end", session=1, call=1, phase="solve",
                            answer="unsat", seconds=0.5, conflicts=conflicts,
                            decisions=10, propagations=100, learned=conflicts,
                            restarts=1)
        diff = diff_traces(a, b)
        assert diff["max_drift"] == pytest.approx(1.0 / 3.0)
        assert diff["totals"]["conflicts"]["drift"] == pytest.approx(1.0 / 3.0)
        assert diff["solve_seconds"]["drift"] == 0.0

    def test_sub_millisecond_seconds_compare_as_zero(self, tmp_path):
        a = tmp_path / "a.trace.jsonl"
        b = tmp_path / "b.trace.jsonl"
        for path, seconds in ((a, 2e-6), (b, 9e-4)):
            with TraceWriter(path) as writer:
                writer.emit("solve-end", session=1, call=1, phase="solve",
                            answer="sat", seconds=seconds, conflicts=5,
                            decisions=5, propagations=5, learned=5, restarts=0)
        diff = diff_traces(a, b)
        # 2us vs 0.9ms is a 99.8% relative gap but pure timer noise; the
        # floor keeps it from dominating max_drift.
        assert diff["max_drift"] == 0.0

    def test_timeline_buckets_use_cumulative_deltas(self, tmp_path):
        path = tmp_path / "timeline.trace.jsonl"
        with TraceWriter(path, stride=10) as writer:
            writer.emit("conflict", conflicts=10, decisions=1, propagations=1,
                        learned=10, level=1, lbd=1, learned_len=1)
            writer.emit("conflict", conflicts=30, decisions=2, propagations=2,
                        learned=25, level=1, lbd=1, learned_len=1)
            writer.emit("restart", restarts=1, conflicts=30)
        rows = timeline_buckets(path, buckets=1)
        assert len(rows) == 1
        # 10 (first event, no predecessor) + 20 (30 - 10 cumulative delta).
        assert rows[0]["conflicts"] == 30.0
        assert rows[0]["learned"] == 25.0
        assert rows[0]["restarts"] == 1.0
        assert rows[0]["conflict_rate"] > 0.0

    def test_timeline_counter_reset_falls_back_to_stride(self, tmp_path):
        path = tmp_path / "reset.trace.jsonl"
        with TraceWriter(path, stride=8) as writer:
            writer.emit("conflict", conflicts=100, decisions=1, propagations=1,
                        learned=100, level=1, lbd=1, learned_len=1)
            # Fresh solver: cumulative counters restart below the previous.
            writer.emit("conflict", conflicts=8, decisions=1, propagations=1,
                        learned=8, level=1, lbd=1, learned_len=1)
        rows = timeline_buckets(path, buckets=1)
        assert rows[0]["conflicts"] == 100.0 + 8.0  # reset contributes stride

    def test_timeline_rejects_bad_bucket_count(self, tmp_path):
        path = self._traced_solve(tmp_path)
        with pytest.raises(ValueError, match="buckets"):
            timeline_buckets(path, buckets=0)

    def test_render_summary_and_timeline_smoke(self, tmp_path):
        path = self._traced_solve(tmp_path)
        summary = summarize_trace(path)
        text = render_summary(summary)
        assert "backend=cdcl" in text
        assert "verify" in text
        assert "unsat=1" in text
        timeline = render_timeline(path, buckets=5)
        assert "confl/s" in timeline

    def test_ascii_bar(self):
        assert ascii_bar(0.0) == ""
        assert ascii_bar(1.0, width=10) == "#" * 10
        assert ascii_bar(0.5, width=10) == "#" * 5
        assert ascii_bar(0.001, width=10) == "#"  # any positive share shows
        assert ascii_bar(2.0, width=10) == "#" * 10  # clamped
        assert ascii_bar(-1.0, width=10) == ""


class TestCampaignWiring:
    def test_job_trace_path_is_key_derived(self, tmp_path):
        path = job_trace_path(tmp_path / "traces", "abc123")
        assert path == tmp_path / "traces" / "abc123.trace.jsonl"

    def test_execute_job_attempt_records_trace(self, tmp_path):
        trace_path = tmp_path / "job.trace.jsonl"
        record = execute_job_attempt(
            "sleep", {"seconds": 0.0, "marker": "traced"},
            trace_path=trace_path,
        )
        assert record["status"] == "completed"
        assert record["trace"] == str(trace_path)
        events = read_trace_events(trace_path)
        assert events[0]["kind"] == "meta"
        assert events[0]["stride"] == DEFAULT_STRIDE
        assert events[0]["job_kind"] == "sleep"

    def test_execute_job_attempt_without_trace_has_no_field(self):
        record = execute_job_attempt("sleep", {"seconds": 0.0})
        assert "trace" not in record

    def test_solver_tally_phase_seconds_and_rate(self):
        spec = CampaignSpec(name="demo", jobs=[
            JobSpec(kind="sleep", group="g", params={"marker": index})
            for index in range(3)
        ])
        store = ResultStore(None)
        blocks = [
            {"solve_calls": 2, "conflicts": 300, "solve_seconds": 1.5,
             "phase_seconds": {"dip-search": 1.0, "verify": 0.5}},
            {"solve_calls": 1, "conflicts": 100, "solve_seconds": 0.5,
             "phase_seconds": {"dip-search": 0.5}},
        ]
        for job, block in zip(spec.jobs, blocks):
            store.append({"key": job.key, "status": "completed", "solver": block})
        status = campaign_status(spec, store)
        assert status.solver_records == 2 and status.missing == 1
        assert status.solver.phase_seconds == {"dip-search": 1.5, "verify": 0.5}
        assert status.groups[0].solver == status.solver
        assert "solver    : 400 conflicts" in render_status(status)
        assert "200 conflicts/s" in render_status(status)
        # No solver time yet: the line shows without a rate.
        status.solver.solve_seconds = 0.0
        assert "conflicts/s" not in render_status(status)
        empty = campaign_status(spec, ResultStore(None))
        assert "solver    :" not in render_status(empty)

    def test_render_status_live_solver_line(self):
        status = CampaignStatus(
            name="demo", total=2, completed=2, solver_records=1,
            solver=SolverTelemetry.from_dict({
                "solve_calls": 4, "conflicts": 1000, "decisions": 50,
                "propagations": 9000, "solve_seconds": 2.0,
                "phase_seconds": {"dip-search": 1.5, "verify": 0.5},
            }),
        )
        text = render_status(status)
        assert "500 conflicts/s" in text
        assert "phases    : dip-search 1.5s, verify 0.5s" in text

    def test_render_status_without_phases_omits_line(self):
        status = CampaignStatus(
            name="demo", total=1, completed=1, solver_records=1,
            solver=SolverTelemetry.from_dict({"solve_calls": 1, "conflicts": 10}),
        )
        text = render_status(status)
        assert "solver    : 10 conflicts" in text
        assert "phases" not in text
