"""Integration tests: the event-trace subsystem end to end through the CLI.

Covers the full observability loop the trace subsystem exists for: a traced
``repro attack`` run produces analysable traces
(``repro trace summary|timeline|diff``, and a rerun diffs to zero drift), a traced campaign records one
trace file per job key and points each result record at it, the
campaign report grows the per-phase flame view, and tracing never perturbs
the (redacted) report a campaign aggregates to.
"""

import json

import pytest

from repro.campaign import CampaignSpec, JobSpec, ResultStore, run_campaign
from repro.cli import main as cli_main
from repro.experiments.campaigns import aggregate_campaign
from repro.experiments.table3 import table3_jobs
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.cutelock_str import CuteLockStr
from repro.netlist.bench import save_bench
from repro.trace import TRACE_SCHEMA_VERSION, TraceWriter, read_trace_events, summarize_trace


@pytest.fixture(scope="module")
def bench_pair(tmp_path_factory):
    """Original + locked bench files for the CLI attack runs."""
    root = tmp_path_factory.mktemp("bench")
    fsm = random_fsm(8, 2, 2, seed=5)
    circuit = synthesize_fsm(fsm)
    locked = CuteLockStr(num_keys=4, key_width=2, num_locked_ffs=2, seed=3).lock(circuit)
    original_path = root / "design.bench"
    locked_path = root / "design_locked.bench"
    save_bench(circuit, original_path)
    save_bench(locked.circuit, locked_path)
    return original_path, locked_path


def _traced_attack(bench_pair, trace_dir, json_path):
    original_path, locked_path = bench_pair
    exit_code = cli_main([
        "attack", str(locked_path), str(original_path),
        "--attack", "sat", "--time-limit", "30",
        "--trace", str(trace_dir),
        "--json", str(json_path),
    ])
    assert exit_code in (0, 1)  # attack ran; either side may win
    return trace_dir / "sat.trace.jsonl"


class TestTracedAttackCli:
    def test_attack_trace_analysis_cycle(self, bench_pair, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        json_path = tmp_path / "sat.json"
        path = _traced_attack(bench_pair, trace_dir, json_path)
        out = capsys.readouterr().out
        assert f"trace written to {path}" in out
        # The --json payload points at the trace file.
        payload = json.loads(json_path.read_text())  # repro-lint: disable=R003 (whole --json document, not JSONL)
        assert payload["trace"] == str(path)
        # The trace itself is real: header, session binding, solve
        # markers and at least one attack round marker.
        events = read_trace_events(path)
        kinds = {event["kind"] for event in events}
        assert {"meta", "session", "solve-begin", "solve-end",
                "attack-round"} <= kinds
        meta = events[0]
        assert meta["attack"] == "sat"
        assert meta["locked"] == str(bench_pair[1])
        summary = summarize_trace(path)
        assert summary["backends"] == ["cdcl"]
        assert summary["attack_rounds"] >= 1
        assert summary["calls"] >= 1

        # summary renders and exits 0.
        assert cli_main(["trace", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "backend=cdcl" in out
        assert "phase" in out

    def test_trace_summary_json(self, bench_pair, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        path = _traced_attack(bench_pair, trace_dir, tmp_path / "a.json")
        capsys.readouterr()
        summary_json = tmp_path / "summary.json"
        assert cli_main(["trace", "summary", str(path),
                         "--json", str(summary_json)]) == 0
        capsys.readouterr()
        payload = json.loads(summary_json.read_text())
        assert payload["path"] == str(path)
        assert payload["phases"]

    def test_trace_timeline(self, bench_pair, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        path = _traced_attack(bench_pair, trace_dir, tmp_path / "a.json")
        capsys.readouterr()
        assert cli_main(["trace", "timeline", str(path),
                         "--buckets", "8"]) == 0
        out = capsys.readouterr().out
        assert "confl/s" in out
        assert out.count("\n") >= 8

    def test_trace_diff_of_a_rerun_and_self(self, bench_pair, tmp_path, capsys):
        a = _traced_attack(bench_pair, tmp_path / "run-a", tmp_path / "a.json")
        b = _traced_attack(bench_pair, tmp_path / "run-b", tmp_path / "b.json")
        capsys.readouterr()
        # Rerun diff: both files named, drift table rendered.
        assert cli_main(["trace", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert f"A: {a} [cdcl]" in out and f"B: {b} [cdcl]" in out
        assert "max drift:" in out
        # The search is deterministic, so a rerun repeats every counter;
        # only the seconds may differ.
        rerun_json = tmp_path / "rerun.json"
        assert cli_main(["trace", "diff", str(a), str(b),
                         "--json", str(rerun_json)]) == 0
        capsys.readouterr()
        rerun = json.loads(rerun_json.read_text())
        assert rerun["totals"]
        assert all(entry["drift"] == 0.0 for entry in rerun["totals"].values())
        assert rerun["phases"]
        assert all(row["a_conflicts"] == row["b_conflicts"] for row in rerun["phases"])
        # A trace diffed against itself reports exactly zero drift.
        diff_json = tmp_path / "diff.json"
        assert cli_main(["trace", "diff", str(a), str(a),
                         "--json", str(diff_json)]) == 0
        capsys.readouterr()
        payload = json.loads(diff_json.read_text())
        assert payload["max_drift"] == 0.0


class TestTraceCliErrors:
    """Unreadable input is one ``trace <command>: ...`` line and exit 2."""

    @pytest.fixture
    def traces(self, tmp_path):
        good = tmp_path / "good.trace.jsonl"
        with TraceWriter(good):
            pass
        future = tmp_path / "future.trace.jsonl"
        future.write_text(json.dumps({
            "kind": "meta", "t": 0.0, "schema": TRACE_SCHEMA_VERSION + 1,
            "stride": 1,
        }) + "\n")
        return {"good": str(good), "future": str(future),
                "missing": str(tmp_path / "missing.trace.jsonl"),
                "dir": str(tmp_path)}

    @pytest.mark.parametrize("argv, message", [
        (["summary", "missing"], "No such file"),
        (["summary", "dir"], "Is a directory"),
        (["summary", "future"], "newer than supported"),
        (["timeline", "missing"], "No such file"),
        (["timeline", "future"], "newer than supported"),
        (["timeline", "good", "--buckets", "0"], "buckets must be >= 1"),
        (["diff", "good", "missing"], "No such file"),
        (["diff", "dir", "good"], "Is a directory"),
        (["diff", "good", "future"], "newer than supported"),
    ])
    def test_bad_input_exits_2_with_one_line(self, traces, capsys, argv, message):
        command, *rest = argv
        args = [traces.get(item, item) for item in rest]
        assert cli_main(["trace", command] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"trace {command}: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1


class TestTracedCampaign:
    #: One cheap real cell plus a solver-free filler: exercises both the
    #: traced-solver path and the "trace exists but is quiet" path.
    def _spec(self):
        jobs = [JobSpec(kind="sleep", group="sleep", params={"marker": "t"})]
        jobs += table3_jobs(benchmarks=["bcomp"], attacks=["INT"],
                            time_limit=60.0)
        return CampaignSpec(name="traced", jobs=jobs)

    def test_campaign_trace_files_and_flame_report(self, tmp_path, capsys):
        store_root = tmp_path / "store"
        trace_dir = tmp_path / "traces"
        spec = self._spec()
        ResultStore(store_root).write_manifest(spec)
        assert cli_main(["campaign", "resume", "--store", str(store_root),
                         "--trace", str(trace_dir), "--quiet"]) == 0
        capsys.readouterr()

        records = ResultStore(store_root).load_index()
        assert set(records) == {job.key for job in spec.jobs}
        for job in spec.jobs:
            record = records[job.key]
            assert record["status"] == "completed"
            # Every record names its per-key trace file...
            trace_path = trace_dir / f"{job.key}.trace.jsonl"
            assert record["trace"] == str(trace_path)
            # ...and every trace parses, starting with the meta header.
            events = read_trace_events(trace_path)
            assert events[0]["kind"] == "meta"
            assert events[0]["job_kind"] == job.kind
            if job.kind != "sleep":
                kinds = {event["kind"] for event in events}
                assert {"session", "solve-begin", "solve-end"} <= kinds

        report = tmp_path / "report.md"
        assert cli_main(["campaign", "report", "--store", str(store_root),
                         "--output", str(report)]) == 0
        capsys.readouterr()
        text = report.read_text()
        assert "Solver flame view" in text
        assert "#" in text  # at least one proportional bar rendered

    def test_tracing_does_not_perturb_redacted_report(self, tmp_path):
        spec = self._spec()
        traced_store = ResultStore(tmp_path / "traced")
        run_campaign(spec, traced_store, workers=0,
                     trace_dir=tmp_path / "traces")
        plain_store = ResultStore(tmp_path / "plain")
        run_campaign(spec, plain_store, workers=0)

        def render(store):
            tables = aggregate_campaign(spec, store, redact_runtimes=True)
            return "\n\n".join(table.to_text() for table in tables.values())

        assert render(traced_store) == render(plain_store)
