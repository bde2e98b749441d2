"""Integration tests: experiment grids through the campaign orchestrator.

Covers the acceptance semantics of the campaign subsystem: parallel and
serial sweeps aggregate to byte-identical tables (modulo the wall-clock
columns, which are redacted for the comparison), a sweep run as N shard
stores then merged reports byte-identically to the serial single-store run,
resume completes only the missing cells, a per-job timeout yields a
``timeout`` row without aborting the sweep, and the ``python -m repro
campaign`` CLI drives the whole run / status / resume / shard / merge /
report (Markdown and LaTeX) cycle.
"""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    JobSpec,
    ResultStore,
    merge_stores,
    run_campaign,
    shard_label,
)
from repro.cli import main as cli_main
from repro.experiments.campaigns import (
    aggregate_campaign,
    build_campaign,
    campaign_latex,
)
from repro.experiments.figure4 import aggregate_figure4, figure4_jobs, run_figure4
from repro.experiments.table3 import aggregate_table3, run_table3, table3_jobs
from repro.experiments.table4 import aggregate_table4, run_table4, table4_jobs
from repro.experiments.table5 import aggregate_table5, run_table5, table5_jobs

#: One cheap benchmark x two attack modes: small enough for CI, wide enough
#: to exercise multi-cell aggregation.  The generous time limit keeps both
#: cells far from the budget boundary, which is what makes the outcomes —
#: and therefore the aggregated tables — deterministic across engines and
#: worker counts.
GRID = dict(benchmarks=["bcomp"], attacks=["INT", "KC2"], time_limit=60.0)

#: Each driver with its grid function, its fold and a small grid.
DRIVERS = {
    "table3": (run_table3, table3_jobs, aggregate_table3, GRID),
    "table4": (run_table4, table4_jobs, aggregate_table4,
               dict(benchmarks=["b01"], attacks=["INT", "RANE"], time_limit=60.0)),
    "table5": (run_table5, table5_jobs, aggregate_table5, dict(benchmarks=["b01"])),
    "figure4": (run_figure4, figure4_jobs, aggregate_figure4,
                dict(benchmarks=["b01"], activity_vectors=16)),
}


def _untimed_rows(tables):
    """Rows of one table, or of each table in a dict, without runtime columns."""
    if isinstance(tables, dict):
        return {name: _untimed_rows(table) for name, table in tables.items()}
    return [{k: v for k, v in row.items() if "time" not in k} for row in tables.rows]


class TestParallelSerialEquivalence:
    def test_parallel_and_serial_table3_are_byte_identical(self):
        jobs = table3_jobs(**GRID)
        serial_store = ResultStore(None)
        run_campaign(CampaignSpec(name="s", jobs=jobs), serial_store, workers=0)
        parallel_store = ResultStore(None)
        run_campaign(CampaignSpec(name="p", jobs=jobs), parallel_store, workers=2)

        serial_table, serial_raw = aggregate_table3(
            jobs, serial_store.load_index(), redact_runtimes=True
        )
        parallel_table, parallel_raw = aggregate_table3(
            jobs, parallel_store.load_index(), redact_runtimes=True
        )
        assert serial_table.to_text() == parallel_table.to_text()
        # Beyond the rendered table: outcomes, keys and iteration counts of
        # every cell agree (runtime is the only nondeterministic field).
        for name in serial_raw:
            for left, right in zip(serial_raw[name], parallel_raw[name]):
                assert left.outcome == right.outcome
                assert left.key == right.key
                assert left.iterations == right.iterations

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_driver_matches_explicit_campaign_execution(self, driver):
        run, make_jobs, aggregate, grid = DRIVERS[driver]
        direct, _ = run(**grid)
        jobs = make_jobs(**grid)
        store = ResultStore(None)
        run_campaign(CampaignSpec(name="c", jobs=jobs), store, workers=0)
        campaign, _ = aggregate(jobs, store.load_index())
        assert _untimed_rows(direct) == _untimed_rows(campaign)


class TestResume:
    def test_resume_completes_only_missing_cells(self, tmp_path):
        store_dir = tmp_path / "store"
        first = table3_jobs(benchmarks=["bcomp"], attacks=["INT"], time_limit=60.0)
        run_campaign(CampaignSpec(name="t3", jobs=first),
                     ResultStore(store_dir), workers=0)

        jobs = table3_jobs(**GRID)
        store = ResultStore(store_dir)
        summary = run_campaign(CampaignSpec(name="t3", jobs=jobs), store, workers=0)
        # The INT cell was satisfied by the first run's record.
        assert summary.skipped == 1
        assert summary.executed == 1
        table, raw = aggregate_table3(jobs, store.load_index())
        assert table.rows[0]["INT outcome"] != "fail"
        assert table.rows[0]["KC2 outcome"] != "fail"
        assert not any(r.broke_defense for rs in raw.values() for r in rs)


class TestTimeoutIsolation:
    def test_job_timeout_yields_timeout_row_without_aborting(self, tmp_path):
        jobs = [
            JobSpec(kind="sleep", group="sleep", params={"seconds": 30.0}),
        ] + table3_jobs(benchmarks=["bcomp"], attacks=["INT"], time_limit=60.0)
        spec = CampaignSpec(name="mixed", jobs=jobs)
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(spec, store, workers=2, job_timeout=3.0)
        assert summary.timeouts == 1
        assert summary.completed == 1
        assert store.record_for(jobs[0].key)["status"] == "timeout"
        # The surviving real cell still aggregates into a correct table row.
        table, _ = aggregate_table3(jobs[1:], store.load_index())
        assert table.rows[0]["INT outcome"] not in ("fail", "timeout")

    def test_timed_out_cell_renders_as_timeout_outcome(self, tmp_path):
        jobs = table3_jobs(benchmarks=["bcomp"], attacks=["INT"], time_limit=60.0)
        store = ResultStore(tmp_path / "store")
        # A 50 ms budget cannot even load the benchmark: the job times out.
        summary = run_campaign(CampaignSpec(name="t3", jobs=jobs), store,
                               workers=0, job_timeout=0.05)
        assert summary.timeouts == 1
        table, raw = aggregate_table3(jobs, store.load_index())
        assert table.rows[0]["INT outcome"] == "timeout"
        assert raw["bcomp"][0].details["campaign_status"] == "timeout"


class TestCampaignCli:
    def test_run_status_resume_report_cycle(self, tmp_path, capsys):
        store = tmp_path / "store"
        fast = ["--time-limit", "30"]
        assert cli_main(["campaign", "run", "--store", str(store),
                         "--grid", "smoke", "--workers", "2", "--quiet"] + fast) == 0
        out = capsys.readouterr().out
        assert "remaining : 0" in out

        assert cli_main(["campaign", "status", "--store", str(store)]) == 0
        assert "completed : 7" in capsys.readouterr().out

        # Resume on a finished store is a no-op and still exits 0.
        assert cli_main(["campaign", "resume", "--store", str(store),
                         "--quiet"]) == 0
        capsys.readouterr()

        report = tmp_path / "report.md"
        assert cli_main(["campaign", "report", "--store", str(store),
                         "--output", str(report)]) == 0
        capsys.readouterr()
        assert "Table III" in report.read_text()

    def test_status_without_manifest_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no campaign manifest"):
            cli_main(["campaign", "status", "--store", str(tmp_path / "empty")])

    def test_unclean_campaign_exits_nonzero(self, tmp_path, capsys):
        # Pre-build a manifest whose only job fails, then run it via the CLI.
        store_dir = tmp_path / "store"
        spec = CampaignSpec(name="bad", jobs=[
            JobSpec(kind="sleep", group="sleep", params={"fail": True}),
        ])
        ResultStore(store_dir).write_manifest(spec)
        assert cli_main(["campaign", "resume", "--store", str(store_dir),
                         "--quiet"]) == 1
        capsys.readouterr()


class TestShardedSweeps:
    def test_sharded_sweep_merges_to_the_serial_report(self, tmp_path):
        """Acceptance: N shard stores, merged, report byte-identical to the
        same spec run serially into a single store (runtimes redacted — the
        one legitimately nondeterministic field)."""
        jobs = table3_jobs(**GRID)
        spec = CampaignSpec(name="t3", jobs=jobs)

        serial_root = tmp_path / "serial"
        run_campaign(spec, ResultStore(serial_root), workers=0)

        sharded_root = tmp_path / "sharded"
        ResultStore(sharded_root).write_manifest(spec)
        for index in range(2):
            run_campaign(
                spec.shard(index, 2),
                ResultStore(sharded_root, shard=shard_label(index, 2)),
                workers=0, write_manifest=False,
            )
        assert not (sharded_root / "results.jsonl").exists()
        merge_stores(sharded_root)

        def render(root):
            tables = aggregate_campaign(
                spec, ResultStore(root), redact_runtimes=True)
            return "\n\n".join(table.to_text() for table in tables.values())

        assert render(serial_root) == render(sharded_root)
        # LaTeX output from the merged store matches the serial store too.
        assert campaign_latex(spec, ResultStore(sharded_root),
                              redact_runtimes=True) == \
            campaign_latex(spec, ResultStore(serial_root), redact_runtimes=True)

    def test_cli_shard_merge_status_cycle(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        spec = CampaignSpec(name="clidemo", jobs=[
            JobSpec(kind="sleep", group="sleep", params={"marker": i})
            for i in range(5)
        ])
        ResultStore(store).write_manifest(spec)
        assert cli_main(["campaign", "resume", "--store", store,
                         "--shard", "1/2", "--quiet"]) == 0
        assert "shard     : 1/2" in capsys.readouterr().out
        assert cli_main(["campaign", "resume", "--store", store,
                         "--shard", "2/2", "--quiet"]) == 0
        capsys.readouterr()
        # Unmerged canonical store: everything still reads as missing.
        assert cli_main(["campaign", "status", "--store", store]) == 0
        assert "remaining : 5" in capsys.readouterr().out
        assert cli_main(["campaign", "merge", "--store", store]) == 0
        assert "5 read, 5 kept" in capsys.readouterr().out
        assert cli_main(["campaign", "status", "--store", store]) == 0
        assert "remaining : 0" in capsys.readouterr().out

    def test_cli_shard_costs_alone_balance_the_partition(self, tmp_path, capsys):
        """``--shard-costs`` by itself selects the LPT partition: one heavy
        cell gets a shard to itself (round-robin would give shard 1/2 three
        of the five cells)."""
        store = str(tmp_path / "store")
        spec = CampaignSpec(name="costdemo", jobs=[
            JobSpec(kind="sleep", group="sleep", params={"marker": i})
            for i in range(5)
        ])
        ResultStore(store).write_manifest(spec)
        costs = ResultStore(tmp_path / "costs")
        for index, job in enumerate(spec.jobs):
            costs.append({"key": job.key, "status": "completed",
                          "cpu_seconds": 100.0 if index == 2 else 1.0})
        for shard, remaining in (("1/2", 1), ("2/2", 4)):
            assert cli_main(["campaign", "status", "--store", store,
                             "--shard", shard,
                             "--shard-costs", str(tmp_path / "costs")]) == 0
            assert f"remaining : {remaining}\n" in capsys.readouterr().out
        # No measured cell in the grid: round-robin striping.
        assert cli_main(["campaign", "status", "--store", store,
                         "--shard", "1/2", "--shard-costs", store]) == 0
        assert "remaining : 3\n" in capsys.readouterr().out

    def test_status_and_report_fold_only_numeric_solver_values(
        self, tmp_path, capsys
    ):
        # Store records are outside input: a record without a solver key,
        # with "solver": null, or with non-numeric values must not break
        # status or report, and only the numeric values are summed.
        store_dir = tmp_path / "store"
        spec = CampaignSpec(name="tolerant", jobs=[
            JobSpec(kind="sleep", group="g", params={"marker": index})
            for index in range(4)
        ])
        store = ResultStore(store_dir)
        store.write_manifest(spec)
        extras = [
            {},
            {"solver": None},
            {"solver": {"backend": "cdcl", "conflicts": "12", "decisions": 5,
                        "propagations": 40, "solve_calls": 2,
                        "solve_seconds": 0.5,
                        "phase_seconds": {"verify": "x", "dip-search": 0.5}}},
            {"solver": {"conflicts": 8, "solve_seconds": "slow",
                        "phase_seconds": "x"}},
        ]
        for job, extra in zip(spec.jobs, extras):
            store.append({"key": job.key, "status": "completed", **extra})

        assert cli_main(["campaign", "status", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert ("solver    : 8 conflicts, 5 decisions, 40 propagations "
                "(2 solve calls, 0.5s, 16 conflicts/s)\n") in out
        assert "phases    : dip-search 0.5s\n" in out

        assert cli_main(["campaign", "report", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "Solver telemetry" in out and "Solver flame view" in out
        tables = aggregate_campaign(spec, ResultStore(store_dir))
        group, total = tables["solver"].rows
        assert group == {**total, "Group": "g"}
        assert total == {
            "Group": "total", "Jobs": 2, "Solve calls": 2, "Decisions": 5,
            "Propagations": 40, "Conflicts": 8, "Learned": 0, "Restarts": 0,
            "Solve time (s)": 0.5,
        }
        assert [(row["Group"], row["Phase"], row["Seconds"])
                for row in tables["solver_flame"].rows] == [("g", "dip-search", 0.5)]

    @pytest.mark.parametrize("command, flags", [
        (["campaign", "run", "--grid", "smoke", "--store"], ["--workers", "-1"]),
        (["campaign", "resume", "--store"], ["--workers", "-1"]),
        (["reproduce", "--store"], ["--workers", "-1"]),
        (["campaign", "run", "--grid", "smoke", "--store"], ["--job-timeout", "0"]),
        (["campaign", "resume", "--store"], ["--job-timeout", "0"]),
        (["reproduce", "--store"], ["--job-timeout", "-5"]),
        (["campaign", "resume", "--store"], ["--job-timeout", "nan"]),
        (["campaign", "run", "--grid", "smoke", "--store"], ["--time-limit", "-5"]),
        (["campaign", "run", "--grid", "smoke", "--store"], ["--time-limit", "0"]),
        (["campaign", "run", "--grid", "smoke", "--store"], ["--time-limit", "nan"]),
        (["reproduce", "--store"], ["--time-limit", "nan"]),
        (["reproduce", "--store"], ["--time-limit", "0"]),
        (["attack", "locked.bench", "oracle.bench", "--trace"], ["--time-limit", "0"]),
        (["attack", "locked.bench", "oracle.bench", "--trace"], ["--time-limit", "-1"]),
        (["attack", "locked.bench", "oracle.bench", "--trace"], ["--time-limit", "nan"]),
    ])
    def test_cli_rejects_bad_execution_arguments(self, tmp_path, capsys,
                                                 command, flags):
        # Rejected while parsing: nothing is written and nothing runs.  A
        # zero, negative or NaN --time-limit would end each attack at once
        # as a "timeout", which `attack` reports as exit 0, "defense held".
        store = tmp_path / "store"
        spec = CampaignSpec(name="tiny", jobs=[
            JobSpec(kind="sleep", group="sleep", params={"seconds": 0.0}),
        ])
        ResultStore(store).write_manifest(spec)
        manifest = (store / "manifest.json").read_bytes()
        with pytest.raises(SystemExit) as exc:
            cli_main(command + [str(store)] + flags)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flags[0] in err and "Traceback" not in err
        assert (store / "manifest.json").read_bytes() == manifest
        assert [path.name for path in store.iterdir()] == ["manifest.json"]

    def test_merge_of_a_missing_store_is_one_error_line(self, tmp_path, capsys):
        missing = tmp_path / "no-such-store"
        assert cli_main(["campaign", "merge", "--store", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("campaign merge: nothing to merge")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not missing.exists()

    def test_cli_report_latex_from_store(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        jobs = table3_jobs(benchmarks=["bcomp"], attacks=["INT"], time_limit=60.0)
        spec = CampaignSpec(name="t3", jobs=jobs)
        store = ResultStore(store_dir)
        store.write_manifest(spec)
        run_campaign(spec, store, workers=0, write_manifest=False)
        output = tmp_path / "tables.tex"
        assert cli_main(["campaign", "report", "--store", str(store_dir),
                         "--latex", "--output", str(output)]) == 0
        capsys.readouterr()
        content = output.read_text()
        assert r"\begin{tabular}" in content
        assert "Table III" in content
        # Without --output the fragment prints to stdout.
        assert cli_main(["campaign", "report", "--store", str(store_dir),
                         "--latex"]) == 0
        assert r"\begin{table}" in capsys.readouterr().out

    def test_cli_rejects_malformed_shard(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["campaign", "resume", "--store", str(tmp_path / "s"),
                      "--shard", "3/2"])
        with pytest.raises(SystemExit):
            cli_main(["campaign", "resume", "--store", str(tmp_path / "s"),
                      "--shard", "nope"])


class TestFullGridAggregation:
    def test_partial_store_aggregates_available_groups(self, tmp_path):
        spec = build_campaign("smoke", attack_time_limit=60.0)
        store = ResultStore(tmp_path / "store")
        run_campaign(spec, store, workers=0)
        tables = aggregate_campaign(spec, store)
        # The sleep filler group has no table aggregator; table3 does, and
        # the aggregate solver-telemetry and flame-view tables always ride
        # along.
        assert set(tables) == {"table3", "solver", "solver_flame"}
        assert tables["table3"].rows[0]["Circuit"] == "bcomp"
        solver = tables["solver"]
        assert {"Conflicts", "Decisions", "Propagations"} <= set(solver.columns)
        by_group = {row["Group"]: row for row in solver.rows}
        # The sleep fillers solved nothing; the attack cell did.
        assert by_group["sleep"]["Solve calls"] == 0
        assert by_group["table3"]["Solve calls"] > 0
        assert by_group["table3"]["Propagations"] > 0

    def test_manifest_json_round_trip_preserves_job_keys(self, tmp_path):
        spec = build_campaign("smoke")
        store = ResultStore(tmp_path / "store")
        store.write_manifest(spec)
        text = (tmp_path / "store" / "manifest.json").read_text()
        rebuilt = CampaignSpec.from_dict(json.loads(text))
        assert [j.key for j in rebuilt.jobs] == [j.key for j in spec.jobs]
