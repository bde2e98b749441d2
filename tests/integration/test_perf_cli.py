"""Integration tests: the perf observability loop end to end through the CLI.

Drives ``repro perf run|list|history|compare|gate`` in-process over a
synthetic registered benchmark whose speed is controlled by a knob, so the
full story is exercised deterministically and fast: a smoke run appends to
the history and writes ``BENCH_*.json`` snapshots, an injected 2x slowdown
is flagged as a regression (exit 1) while a no-op re-run reads as noise
(exit 0), the gate re-checks acceptance bars against the latest records,
and missing inputs exit 2.  One real registered bench runs through the same
path to keep the suites honest.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.perf import Bar, perf_benchmark, unregister


class _Knob:
    """Controls the synthetic bench: scale 2.0 = exactly twice as slow."""

    scale = 1.0


@pytest.fixture()
def synth_bench():
    @perf_benchmark(
        "synth.fast",
        params=dict(size=100),
        smoke=dict(size=10),
        bars=[Bar("rate", ">=", 60.0)],
        primary="loop",
        description="deterministic synthetic workload for CLI tests",
    )
    def fast(harness, params):
        harness.record_series("loop", [0.010 * _Knob.scale] * 5)
        return {"rate": 100.0 / _Knob.scale}

    _Knob.scale = 1.0
    yield "synth.fast"
    _Knob.scale = 1.0
    unregister("synth.fast")


def _run(tmp_path, history_name="perf.jsonl", *, extra=()):
    return cli_main([
        "perf", "run", "--bench", "synth.fast", "--smoke",
        "--history", str(tmp_path / history_name),
        "--snapshot-dir", str(tmp_path), *extra,
    ])


class TestRunHistorySnapshots:
    def test_run_appends_history_and_writes_snapshots(
        self, synth_bench, tmp_path, capsys
    ):
        json_path = tmp_path / "run.json"
        assert _run(tmp_path, extra=("--json", str(json_path))) == 0
        out = capsys.readouterr().out
        assert "synth.fast" in out and "snapshot written to" in out

        # The history holds the run with its environment fingerprint.
        history_path = tmp_path / "perf.jsonl"
        records = [json.loads(line)
                   for line in history_path.read_text().splitlines()]
        assert [r["bench"] for r in records] == ["synth.fast"]
        assert records[0]["smoke"] is True and records[0]["ok"] is True
        assert records[0]["schema"] == 1 and records[0]["recorded_at"] > 0
        assert set(records[0]["env"]) >= {"git_sha", "python", "flags"}

        # The per-suite snapshot is emitted next to it.
        snapshot = json.loads((tmp_path / "BENCH_SYNTH.json").read_text())
        assert snapshot["suite"] == "synth"
        assert snapshot["benches"]["synth.fast"]["metrics"] == {"rate": 100.0}

        payload = json.loads(json_path.read_text())
        assert payload["ok"] is True and payload["failed"] == []

    def test_failed_bar_exits_one_with_diagnostic(
        self, synth_bench, tmp_path, capsys
    ):
        _Knob.scale = 2.0  # rate 50 < bar 60
        assert _run(tmp_path) == 1
        captured = capsys.readouterr()
        assert "BAR FAILURE" in captured.err
        assert "rate" in captured.err

    def test_history_lists_recorded_runs(self, synth_bench, tmp_path, capsys):
        _run(tmp_path)
        capsys.readouterr()
        assert cli_main(["perf", "history",
                         "--history", str(tmp_path / "perf.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "synth.fast" in out and "smoke" in out and "1 record(s)" in out

    def test_list_includes_real_suites_and_synth(
        self, synth_bench, tmp_path, capsys
    ):
        json_path = tmp_path / "list.json"
        assert cli_main(["perf", "list", "--json", str(json_path)]) == 0
        names = {bench["name"]
                 for bench in json.loads(json_path.read_text())["benchmarks"]}
        assert "synth.fast" in names
        # The real suites are all registered alongside it.
        assert {"engine.packed_speedup", "solver.trace_off_overhead",
                "campaign.store_append", "attacks.baseline_sat",
                "substrate.micro"} <= names


class TestCompare:
    def test_injected_2x_slowdown_is_a_regression(
        self, synth_bench, tmp_path, capsys
    ):
        _run(tmp_path, "baseline.jsonl")
        _Knob.scale = 2.0
        assert _run(tmp_path, "candidate.jsonl") == 1  # also fails its bar
        capsys.readouterr()
        json_path = tmp_path / "compare.json"
        exit_code = cli_main([
            "perf", "compare", str(tmp_path / "baseline.jsonl"),
            str(tmp_path / "candidate.jsonl"), "--smoke",
            "--json", str(json_path),
        ])
        assert exit_code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        comparison = json.loads(json_path.read_text())
        row = comparison["rows"][0]
        assert row["verdict"] == "regressed"
        assert row["relative_change"] == pytest.approx(1.0)

    def test_noop_rerun_reads_as_noise(self, synth_bench, tmp_path, capsys):
        _run(tmp_path, "baseline.jsonl")
        _run(tmp_path, "candidate.jsonl")
        capsys.readouterr()
        json_path = tmp_path / "compare.json"
        exit_code = cli_main([
            "perf", "compare", str(tmp_path / "baseline.jsonl"),
            str(tmp_path / "candidate.jsonl"), "--smoke",
            "--json", str(json_path),
        ])
        assert exit_code == 0
        comparison = json.loads(json_path.read_text())
        assert [row["verdict"] for row in comparison["rows"]] == ["noisy"]

    def test_single_history_self_compare_via_latest(
        self, synth_bench, tmp_path, capsys
    ):
        # baseline positional + no candidate -> --history (same file here).
        _run(tmp_path)
        capsys.readouterr()
        assert cli_main([
            "perf", "compare", str(tmp_path / "perf.jsonl"),
            "--history", str(tmp_path / "perf.jsonl"), "--smoke",
        ]) == 0

    def test_missing_history_exits_two(self, tmp_path, capsys):
        assert cli_main([
            "perf", "compare", str(tmp_path / "nope.jsonl"),
            str(tmp_path / "nope2.jsonl"),
        ]) == 2
        assert "no history" in capsys.readouterr().err


class TestGate:
    def test_gate_passes_then_fails_on_doctored_history(
        self, synth_bench, tmp_path, capsys
    ):
        _run(tmp_path)
        capsys.readouterr()
        gate_argv = ["perf", "gate", "--bench", "synth.fast", "--smoke",
                     "--history", str(tmp_path / "perf.jsonl")]
        assert cli_main(gate_argv) == 0
        assert "PASS" in capsys.readouterr().out

        # Doctor the recorded metric below the bar: the gate re-evaluates
        # bars from the stored metrics, so it must now fail.
        history_path = tmp_path / "perf.jsonl"
        record = json.loads(history_path.read_text())
        record["metrics"]["rate"] = 10.0
        history_path.write_text(json.dumps(record) + "\n")
        assert cli_main(gate_argv) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_gate_counts_missing_benches_as_failures(
        self, synth_bench, tmp_path, capsys
    ):
        (tmp_path / "perf.jsonl").write_text("")  # history exists, but empty
        assert cli_main([
            "perf", "gate", "--bench", "synth.fast", "--smoke",
            "--history", str(tmp_path / "perf.jsonl"),
        ]) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_gate_without_history_exits_two(self, tmp_path, capsys):
        assert cli_main([
            "perf", "gate", "--history", str(tmp_path / "nope.jsonl"),
        ]) == 2
        assert "run `repro perf run` first" in capsys.readouterr().err

    def test_unknown_bench_selection_exits_two(self, tmp_path, capsys):
        assert cli_main([
            "perf", "gate", "--bench", "nosuch.bench",
            "--history", str(tmp_path / "nope.jsonl"),
        ]) == 2
        assert "nosuch.bench" in capsys.readouterr().err


class TestRealBenchThroughCli:
    def test_real_bench_smoke_cycle(self, tmp_path, capsys):
        """One real suite bench through run -> history -> gate."""
        history = tmp_path / "perf.jsonl"
        assert cli_main([
            "perf", "run", "--bench", "campaign.store_append", "--smoke",
            "--history", str(history), "--snapshot-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "campaign.store_append" in out
        assert (tmp_path / "BENCH_CAMPAIGN.json").exists()
        assert cli_main([
            "perf", "gate", "--bench", "campaign.store_append", "--smoke",
            "--history", str(history),
        ]) == 0
