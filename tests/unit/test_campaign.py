"""Unit tests for the campaign subsystem: specs, store, executor, progress."""

import hashlib
import importlib.util
import inspect
import json
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.attacks.results import GRID_TIME_LIMIT
from repro.campaign import (
    CampaignSpec,
    JobSpec,
    ResultStore,
    campaign_status,
    execute_job_attempt,
    job_key,
    register_job_kind,
    render_status,
    resolve_job_kind,
    run_campaign,
)
from repro.campaign.jobs import sleep_job
from repro.cli import build_parser
from repro.experiments.campaigns import build_campaign
from repro.experiments.runner import run_all
from repro.experiments.table3 import table3_jobs
from repro.experiments.table4 import table4_jobs

EXAMPLE_SCRIPT = (
    Path(__file__).resolve().parents[2] / "examples" / "reproduce_paper.py"
)


def sleep_jobs(count, **params):
    return [
        JobSpec(kind="sleep", group="sleep", params={"marker": i, **params})
        for i in range(count)
    ]


def example_time_limit(monkeypatch):
    """The time limit ``examples/reproduce_paper.py`` passes when given none."""
    module_spec = importlib.util.spec_from_file_location(
        "reproduce_paper", EXAMPLE_SCRIPT)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    calls = []
    monkeypatch.setattr(module, "run_all", lambda **kwargs: calls.append(kwargs))
    monkeypatch.setattr(sys, "argv", [str(EXAMPLE_SCRIPT)])
    module.main()
    return calls[0]["attack_time_limit"]


#: Where each default of the grids' per-attack limit is read.
TIME_LIMIT_SITES = {
    "table3_jobs": lambda mp: inspect.signature(table3_jobs)
    .parameters["time_limit"].default,
    "table4_jobs": lambda mp: inspect.signature(table4_jobs)
    .parameters["time_limit"].default,
    "build_campaign": lambda mp: inspect.signature(build_campaign)
    .parameters["attack_time_limit"].default,
    "run_all": lambda mp: inspect.signature(run_all)
    .parameters["attack_time_limit"].default,
    "repro reproduce": lambda mp: build_parser()
    .parse_args(["reproduce"]).time_limit,
    "repro campaign run": lambda mp: build_parser()
    .parse_args(["campaign", "run", "--store", "s"]).time_limit,
    "examples/reproduce_paper.py": example_time_limit,
}

#: sha256 prefix of ``manifest.json`` for every grid, quick and paper-sized.
#: Job keys hash each job's params, so a moved pin means a resume against
#: an existing store of that grid would find none of its finished cells.
MANIFEST_PINS = {
    ("full", False): "f8a072fc2aeda28e",
    ("full", True): "a00c48701f207efb",
    ("table1", False): "3622fe7003b27e49",
    ("table1", True): "1f6215feb0fe4f17",
    ("table2", False): "8cb78064fe3b3fef",
    ("table2", True): "52c6c47239502813",
    ("table3", False): "bca55bf1c4de12fb",
    ("table3", True): "721d3b2f9065a5ff",
    ("table4", False): "6f0f319ef8d1e95e",
    ("table4", True): "52fb203b44c1625f",
    ("table5", False): "c2d18a88090301c4",
    ("table5", True): "79facc7db0f56241",
    ("figure4", False): "af7ff4b2753ef84c",
    ("figure4", True): "58b9199dc0a45d87",
    ("smoke", False): "17d118b549f49fff",
    ("smoke", True): "8a30e1b64017494c",
}

def resume_over_a_torn_tail(tmp_path, workers):
    """Kill a three-job sweep while it writes its last record, then resume.

    Returns the summary of the resumed run and the store reloaded after it.
    """
    spec = CampaignSpec(name="c", jobs=sleep_jobs(3))
    root = tmp_path / "store"
    run_campaign(CampaignSpec(name="c", jobs=spec.jobs[:2]), ResultStore(root),
                 workers=0)
    torn = json.dumps({"key": spec.jobs[2].key, "status": "completed"})
    with (root / "results.jsonl").open("a") as handle:
        handle.write(torn[:30])
    summary = run_campaign(spec, ResultStore(root), workers=workers)
    with pytest.warns(RuntimeWarning, match=r"results\.jsonl:3: dropping"):
        reloaded = ResultStore(root)
    return summary, campaign_status(spec, reloaded)


class TestJobKeys:
    def test_key_is_stable_and_param_order_insensitive(self):
        a = job_key("k", {"x": 1, "y": [1, 2]})
        b = job_key("k", {"y": [1, 2], "x": 1})
        assert a == b
        assert len(a) == 16

    def test_key_distinguishes_kind_and_params(self):
        base = job_key("k", {"x": 1})
        assert job_key("k2", {"x": 1}) != base
        assert job_key("k", {"x": 2}) != base

    def test_jobspec_normalises_tuples_like_manifest_round_trip(self):
        job = JobSpec(kind="k", params={"benchmarks": ("a", "b")})
        rebuilt = JobSpec.from_dict(json.loads(json.dumps(job.to_dict())))
        assert rebuilt.key == job.key
        assert rebuilt.params == {"benchmarks": ["a", "b"]}

    def test_manifest_key_mismatch_is_rejected(self):
        data = JobSpec(kind="k", params={"x": 1}).to_dict()
        data["key"] = "0" * 16
        with pytest.raises(ValueError, match="does not match"):
            JobSpec.from_dict(data)


class TestCampaignSpec:
    def test_duplicate_jobs_rejected(self):
        job = JobSpec(kind="sleep", params={"marker": 1})
        with pytest.raises(ValueError, match="duplicate job"):
            CampaignSpec(name="c", jobs=[job, JobSpec(kind="sleep", params={"marker": 1})])

    def test_groups_order_and_lookup(self):
        spec = CampaignSpec(name="c", jobs=[
            JobSpec(kind="sleep", group="b", params={"marker": 1}),
            JobSpec(kind="sleep", group="a", params={"marker": 2}),
            JobSpec(kind="sleep", group="b", params={"marker": 3}),
        ])
        assert spec.groups() == ["b", "a"]
        assert len(spec.jobs_in_group("b")) == 2

    def test_spec_serialisation_round_trip(self):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(3), metadata={"grid": "t"})
        rebuilt = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.name == spec.name
        assert rebuilt.metadata["grid"] == "t"
        assert [j.key for j in rebuilt.jobs] == [j.key for j in spec.jobs]


class TestResultStore:
    def test_append_indexes_latest_record_per_key(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append({"key": "k1", "status": "error"})
        store.append({"key": "k1", "status": "completed"})
        record = store.record_for("k1")
        assert record["status"] == "completed"
        assert record["attempt"] == 2
        assert len(store) == 2

    def test_store_reloads_from_disk(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root).append({"key": "k1", "status": "completed", "payload": {"x": 1}})
        reloaded = ResultStore(root)
        assert reloaded.record_for("k1")["payload"] == {"x": 1}

    def test_truncated_trailing_line_is_tolerated_silently(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root)
        store.append({"key": "k1", "status": "completed"})
        with store.results_path.open("a") as handle:
            handle.write('{"key": "k2", "status": "comp')  # killed mid-write
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a trailing tear must NOT warn
            reloaded = ResultStore(root)
        assert reloaded.record_for("k1") is not None
        assert reloaded.record_for("k2") is None

    def test_append_after_a_torn_tail_survives_reload(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root).append({"key": "a", "status": "completed"})
        path = root / "results.jsonl"
        with path.open("a") as handle:
            handle.write('{"key": "b", "status": "comp')  # killed mid-write
        store = ResultStore(root)
        stored = store.append({"key": "b", "status": "completed"})
        # The append ends the torn line instead of writing onto it, so the
        # fragment is now a corrupt line in the middle of the file.
        with pytest.warns(RuntimeWarning, match=r"results\.jsonl:2: dropping"):
            reloaded = ResultStore(root)
        assert reloaded.record_for("a") is not None
        assert reloaded.record_for("b") == stored
        # Only the first append after the load ends the line.
        store.append({"key": "c", "status": "completed"})
        assert path.read_text().count("\n") == 4
        assert path.read_bytes().endswith(b"}\n")

    def test_append_after_a_torn_tail_deletes_no_byte(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root).append({"key": "a", "status": "completed"})
        path = root / "results.jsonl"
        with path.open("ab") as handle:
            handle.write(b'{"key": "b", "status": "comp')
        before = path.read_bytes()
        stored = ResultStore(root).append({"key": "b", "status": "completed"})
        after = path.read_bytes()
        # The old bytes stay a prefix; only the newline that ends the
        # fragment and the new record's own line follow them.
        assert after[:len(before)] == before
        assert after[len(before):] == (
            b"\n" + json.dumps(stored).encode() + b"\n"
        )

    def test_append_to_a_clean_store_writes_no_blank_line(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root).append({"key": "a", "status": "completed"})
        ResultStore(root).append({"key": "b", "status": "completed"})
        lines = (root / "results.jsonl").read_bytes().split(b"\n")
        assert [json.loads(line)["key"] for line in lines[:-1]] == ["a", "b"]
        assert lines[-1] == b""

    def test_empty_results_file_is_not_a_torn_tail(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "results.jsonl").write_bytes(b"")
        stored = ResultStore(root).append({"key": "a", "status": "completed"})
        assert (root / "results.jsonl").read_bytes() == (
            json.dumps(stored).encode() + b"\n"
        )

    def test_torn_fragment_takes_no_attempt_number(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root).append({"key": "a", "status": "completed"})
        with (root / "results.jsonl").open("a") as handle:
            handle.write('{"key": "b", "status": "error", "attem')
        assert ResultStore(root).append(
            {"key": "b", "status": "completed"})["attempt"] == 1
        with pytest.warns(RuntimeWarning, match=r"results\.jsonl:2: dropping"):
            assert ResultStore(root).record_for("b")["attempt"] == 1

    def test_results_file_is_a_function_of_the_records_alone(self, tmp_path):
        # A record holds what the caller gave it plus its attempt number,
        # and no wall-clock stamp: two stores fed the same records hold
        # the same bytes.
        records = [
            {"key": "a", "status": "error", "error": "boom"},
            {"key": "a", "status": "completed", "payload": {"x": 1}},
        ]
        for name in ("one", "two"):
            store = ResultStore(tmp_path / name)
            for record in records:
                store.append(record)
        one = (tmp_path / "one" / "results.jsonl").read_bytes()
        assert one == (tmp_path / "two" / "results.jsonl").read_bytes()
        assert [sorted(json.loads(line)) for line in one.splitlines()] == [
            ["attempt", "error", "key", "status"],
            ["attempt", "key", "payload", "status"],
        ]

    def test_midfile_corruption_warns_with_line_number(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root)
        store.append({"key": "k1", "status": "completed"})
        store.append({"key": "k2", "status": "completed"})
        lines = store.results_path.read_text().splitlines()
        lines.insert(1, '{"key": "k3", "status"!! garbage')
        store.results_path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match=r"results\.jsonl:2: dropping"):
            reloaded = ResultStore(root)
        # Only the corrupt line is dropped; records around it survive.
        assert len(reloaded) == 2
        assert reloaded.record_for("k1") is not None
        assert reloaded.record_for("k2") is not None

    def test_attempt_counter_survives_reload(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root)
        store.append({"key": "k1", "status": "error"})
        store.append({"key": "k1", "status": "error"})
        reloaded = ResultStore(root)
        record = reloaded.append({"key": "k1", "status": "completed"})
        assert record["attempt"] == 3

    def test_attempt_counter_respects_carried_attempt_numbers(self):
        store = ResultStore(None)
        store.append({"key": "k1", "status": "error", "attempt": 5})
        assert store.append({"key": "k1", "status": "completed"})["attempt"] == 6

    def test_write_manifest_fsyncs_before_replace(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            events.append("fsync")
            return real_fsync(fd)

        def spy_replace(src, dst):
            events.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        store = ResultStore(tmp_path / "store")
        store.write_manifest(CampaignSpec(name="c", jobs=sleep_jobs(1)))
        # The tmp file must hit disk before the rename publishes it (a crash
        # between the two may otherwise install an empty manifest).
        assert "replace" in events
        assert "fsync" in events[: events.index("replace")]
        assert not list((tmp_path / "store").glob("*.tmp*"))

    def test_write_manifest_skips_identical_rewrite(self, tmp_path, monkeypatch):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(2))
        store = ResultStore(tmp_path / "store")
        store.write_manifest(spec)
        # A resume republishes the same manifest; the matching-bytes
        # short-circuit must not touch the file again.
        def boom(src, dst):
            raise AssertionError("manifest rewritten despite identical bytes")

        monkeypatch.setattr(os, "replace", boom)
        store.write_manifest(spec)
        assert store.read_manifest().name == "c"

    def test_counts_include_missing_against_spec(self, tmp_path):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(3))
        store = ResultStore(tmp_path / "store")
        store.append({"key": spec.jobs[0].key, "status": "completed"})
        store.append({"key": "not-in-the-spec", "status": "completed"})
        status = campaign_status(spec, store)
        assert (status.total, status.completed, status.errors) == (3, 1, 0)
        assert status.missing == 2

    def test_in_memory_store_has_no_paths(self):
        store = ResultStore(None)
        assert not store.persistent
        with pytest.raises(ValueError):
            _ = store.results_path


class TestJobRegistry:
    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="unknown job kind"):
            resolve_job_kind("no-such-kind")

    def test_builtin_sleep_resolves(self):
        assert resolve_job_kind("sleep") is sleep_job

    def test_register_and_reject_duplicates(self):
        register_job_kind("test-unit-kind", lambda params: {"ok": True})
        assert resolve_job_kind("test-unit-kind")({}) == {"ok": True}
        with pytest.raises(ValueError, match="already registered"):
            register_job_kind("sleep", lambda params: {})


class TestExecuteJobAttempt:
    def test_completed_attempt_carries_payload(self):
        record = execute_job_attempt("sleep", {"marker": "x"})
        assert record["status"] == "completed"
        assert record["payload"]["marker"] == "x"

    def test_raising_job_is_an_error_row(self):
        record = execute_job_attempt("sleep", {"fail": True})
        assert record["status"] == "error"
        assert "RuntimeError" in record["error"]
        assert "traceback" in record

    def test_overrunning_job_is_a_timeout_row(self):
        record = execute_job_attempt("sleep", {"seconds": 5.0}, job_timeout=0.2)
        assert record["status"] == "timeout"
        assert record["runtime_seconds"] < 2.0

    def test_every_outcome_carries_resource_metrics(self):
        records = [
            execute_job_attempt("sleep", {"marker": "ok"}),
            execute_job_attempt("sleep", {"fail": True}),
            execute_job_attempt("sleep", {"seconds": 5.0}, job_timeout=0.2),
        ]
        for record in records:
            assert record["cpu_seconds"] >= 0.0
            assert "max_rss_kb" in record
            if record["max_rss_kb"] is not None:  # POSIX: a real peak RSS
                assert isinstance(record["max_rss_kb"], int)
                assert record["max_rss_kb"] > 0


class TestSerialExecutor:
    def test_serial_run_completes_all_jobs(self, tmp_path):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(3))
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(spec, store, workers=0)
        assert (summary.executed, summary.completed, summary.skipped) == (3, 3, 0)
        assert campaign_status(spec, store).missing == 0

    def test_resume_skips_completed_jobs(self, tmp_path):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(3))
        store = ResultStore(tmp_path / "store")
        run_campaign(spec, store, workers=0)
        again = run_campaign(spec, store, workers=0)
        assert again.executed == 0
        assert again.skipped == 3

    def test_resume_executes_only_missing_jobs(self, tmp_path):
        log = tmp_path / "runs.log"
        jobs = sleep_jobs(4, log_path=str(log))
        store = ResultStore(tmp_path / "store")
        run_campaign(CampaignSpec(name="c", jobs=jobs[:2]), store, workers=0)
        summary = run_campaign(CampaignSpec(name="c", jobs=jobs), store, workers=0)
        assert summary.skipped == 2
        assert summary.executed == 2
        # Each job body ran exactly once across both invocations.
        assert len(log.read_text().splitlines()) == 4

    def test_error_row_does_not_abort_the_sweep(self, tmp_path):
        jobs = [
            JobSpec(kind="sleep", params={"marker": 0, "fail": True}),
            JobSpec(kind="sleep", params={"marker": 1}),
        ]
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(CampaignSpec(name="c", jobs=jobs), store, workers=0)
        assert summary.errors == 1
        assert summary.completed == 1

    def test_failed_rows_skipped_unless_retry_failed(self, tmp_path):
        jobs = [JobSpec(kind="sleep", params={"marker": 0, "fail": True})]
        spec = CampaignSpec(name="c", jobs=jobs)
        store = ResultStore(tmp_path / "store")
        run_campaign(spec, store, workers=0)
        assert run_campaign(spec, store, workers=0).executed == 0
        retried = run_campaign(spec, store, workers=0, retry_failed=True)
        assert retried.executed == 1
        assert store.record_for(jobs[0].key)["attempt"] == 2

    def test_serial_job_timeout_yields_timeout_row(self, tmp_path):
        jobs = [
            JobSpec(kind="sleep", params={"marker": 0, "seconds": 5.0}),
            JobSpec(kind="sleep", params={"marker": 1}),
        ]
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(
            CampaignSpec(name="c", jobs=jobs), store, workers=0, job_timeout=0.3
        )
        assert summary.timeouts == 1
        assert summary.completed == 1

    def test_resume_over_a_torn_tail_keeps_every_record(self, tmp_path):
        # The torn job reruns, and its new record survives a reload rather
        # than fusing with the fragment into one undecodable last line.
        summary, status = resume_over_a_torn_tail(tmp_path, workers=0)
        assert (summary.executed, summary.skipped) == (1, 2)
        assert (status.completed, status.missing) == (3, 0)

    def test_progress_callback_sees_every_record(self, tmp_path):
        seen = []
        spec = CampaignSpec(name="c", jobs=sleep_jobs(3))
        run_campaign(
            spec, ResultStore(None), workers=0,
            progress=lambda record, done, total: seen.append((record["status"], done, total)),
        )
        assert [entry[1] for entry in seen] == [1, 2, 3]
        assert all(entry[2] == 3 for entry in seen)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(CampaignSpec(name="c", jobs=[]), ResultStore(None), workers=-1)

    @pytest.mark.parametrize("job_timeout", [0.0, -5.0])
    def test_non_positive_job_timeout_rejected_before_anything_runs(
        self, tmp_path, job_timeout
    ):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError, match="job_timeout"):
            run_campaign(CampaignSpec(name="c", jobs=sleep_jobs(2)), store,
                         job_timeout=job_timeout)
        assert not store.has_manifest()
        assert len(store) == 0


class TestParallelExecutor:
    def test_parallel_run_completes_all_jobs(self, tmp_path):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(4, seconds=0.1))
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(spec, store, workers=2)
        assert summary.completed == 4
        assert campaign_status(spec, store).missing == 0

    def test_worker_timeout_does_not_abort_the_sweep(self, tmp_path):
        jobs = [
            JobSpec(kind="sleep", params={"marker": "slow", "seconds": 10.0}),
            JobSpec(kind="sleep", params={"marker": "a", "seconds": 0.05}),
            JobSpec(kind="sleep", params={"marker": "b", "seconds": 0.05}),
        ]
        spec = CampaignSpec(name="c", jobs=jobs)
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(spec, store, workers=2, job_timeout=0.5)
        assert summary.timeouts == 1
        assert summary.completed == 2
        assert store.record_for(jobs[0].key)["status"] == "timeout"

    def test_parallel_error_isolation(self, tmp_path):
        jobs = [
            JobSpec(kind="sleep", params={"marker": 0, "fail": True}),
            JobSpec(kind="sleep", params={"marker": 1}),
        ]
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(CampaignSpec(name="c", jobs=jobs), store, workers=2)
        assert summary.errors == 1
        assert summary.completed == 1

    def test_unpicklable_payload_completes_identically_in_both_modes(self, tmp_path):
        """A payload holding a lambda is coerced to JSON inside the attempt,
        so it never hits the pool boundary: serial and parallel runs both
        complete the job with the identical stringified payload (no broken
        pool, no pointless isolated-pool re-run)."""
        records = {}
        for mode, workers in (("serial", 0), ("parallel", 2)):
            log = tmp_path / f"runs-{mode}.log"
            jobs = [
                JobSpec(kind="sleep", params={"marker": "lam", "unpicklable": True,
                                              "log_path": str(log)}),
                JobSpec(kind="sleep", params={"marker": "ok", "seconds": 0.05}),
            ]
            store = ResultStore(tmp_path / f"store-{mode}")
            summary = run_campaign(CampaignSpec(name="c", jobs=jobs), store,
                                   workers=workers)
            assert summary.completed == 2
            assert summary.errors == 0
            records[mode] = store.record_for(jobs[0].key)
            # The job body executed exactly once — no isolated-pool re-run.
            assert log.read_text().splitlines().count("lam") == 1
        for record in records.values():
            assert record["status"] == "completed"
            assert record["payload"]["handle"].startswith("<function")
        # Identical payloads modulo the stringified handle (its repr embeds
        # a per-process memory address).
        strip = lambda payload: {k: v for k, v in payload.items() if k != "handle"}
        assert strip(records["serial"]["payload"]) == \
            strip(records["parallel"]["payload"])

    def test_uncoercible_payload_is_an_error_row_in_both_modes(self, tmp_path):
        """A payload JSON cannot coerce at all (circular reference) must be
        this job's own ``error`` row in serial AND pool mode — not a crash in
        one and a pool-boundary failure in the other — and must not trigger a
        doomed isolated-pool re-run."""
        for mode, workers in (("serial", 0), ("parallel", 2)):
            log = tmp_path / f"runs-{mode}.log"
            jobs = [
                JobSpec(kind="sleep", params={"marker": "loop", "circular": True,
                                              "log_path": str(log)}),
                JobSpec(kind="sleep", params={"marker": "ok", "seconds": 0.05}),
            ]
            store = ResultStore(tmp_path / f"store-{mode}")
            summary = run_campaign(CampaignSpec(name="c", jobs=jobs), store,
                                   workers=workers)
            assert summary.errors == 1
            assert summary.completed == 1
            record = store.record_for(jobs[0].key)
            assert record["status"] == "error"
            assert "Circular" in record["error"]
            assert record["attempt"] == 1
            assert log.read_text().splitlines().count("loop") == 1

    def test_parallel_resume_over_a_torn_tail_keeps_every_record(self, tmp_path):
        summary, status = resume_over_a_torn_tail(tmp_path, workers=2)
        assert (summary.executed, summary.skipped) == (1, 2)
        assert (status.completed, status.missing) == (3, 0)

    def test_pool_records_carry_resource_metrics(self, tmp_path):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(2, seconds=0.05))
        store = ResultStore(tmp_path / "store")
        run_campaign(spec, store, workers=2)
        for job in spec.jobs:
            record = store.record_for(job.key)
            assert record["cpu_seconds"] >= 0.0
            assert "max_rss_kb" in record

    def test_worker_death_is_attributed_to_the_culprit_only(self, tmp_path):
        """A job that SIGKILLs its worker breaks the pool; the innocent jobs
        sharing the pool must still end up completed, not error rows."""
        jobs = [
            JobSpec(kind="sleep", params={"marker": "killer", "kill": True}),
        ] + [
            JobSpec(kind="sleep", params={"marker": f"ok-{i}", "seconds": 0.05})
            for i in range(3)
        ]
        spec = CampaignSpec(name="c", jobs=jobs)
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(spec, store, workers=2)
        assert summary.completed == 3
        assert summary.errors == 1
        culprit = store.record_for(jobs[0].key)
        assert culprit["status"] == "error"
        assert "worker process died" in culprit["error"]
        for job in jobs[1:]:
            assert store.record_for(job.key)["status"] == "completed"

    def test_submit_into_broken_pool_reruns_the_rest_isolated(
        self, tmp_path, monkeypatch
    ):
        """A job can kill its worker before the last job is submitted; the
        shared pool's ``submit`` then raises BrokenProcessPool.  That must
        not escape run_campaign: the refused job and every later one re-run
        in single-job pools."""
        real_submit = ProcessPoolExecutor.submit
        pool_sizes = []

        def submit(pool, *args, **kwargs):
            pool_sizes.append(pool._max_workers)
            if len(pool_sizes) == 3:
                raise BrokenProcessPool("a worker died before this submit")
            return real_submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        spec = CampaignSpec(name="c", jobs=sleep_jobs(4, seconds=0.01))
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(spec, store, workers=2)
        assert (summary.completed, summary.errors) == (4, 0)
        # Two jobs reached the shared pool; the third submit was refused, so
        # jobs three and four each ran in an isolated one-worker pool.
        assert pool_sizes == [2, 2, 2, 1, 1]
        for job in spec.jobs:
            assert store.record_for(job.key)["status"] == "completed"


class TestStatusAndManifest:
    def test_status_counts_and_rendering(self, tmp_path):
        jobs = sleep_jobs(2) + [JobSpec(kind="sleep", group="other",
                                        params={"marker": "x", "fail": True})]
        spec = CampaignSpec(name="demo", jobs=jobs)
        store = ResultStore(tmp_path / "store")
        run_campaign(spec, store, workers=0)
        status = campaign_status(spec, store)
        assert (status.completed, status.errors, status.remaining) == (2, 1, 0)
        text = render_status(status)
        assert "campaign  : demo" in text
        assert "remaining : 0" in text
        assert "other" in text

    def test_manifest_written_and_resumable(self, tmp_path):
        spec = CampaignSpec(name="demo", jobs=sleep_jobs(2))
        store = ResultStore(tmp_path / "store")
        run_campaign(spec, store, workers=0)
        rebuilt = ResultStore(tmp_path / "store").read_manifest()
        assert rebuilt.name == "demo"
        assert [j.key for j in rebuilt.jobs] == [j.key for j in spec.jobs]


class TestBuildCampaign:
    def test_full_grid_covers_every_group(self):
        spec = build_campaign("full", quick=True)
        assert spec.groups() == ["table1", "table2", "table3", "table4",
                                 "table5", "figure4"]
        # quick mode: 1 + 1 + 3x3 + 4x4 + 4x2 + 5x6 cells
        assert len(spec.jobs) == 1 + 1 + 9 + 16 + 8 + 30

    def test_smoke_grid_is_tiny(self):
        spec = build_campaign("smoke")
        assert len(spec.jobs) == 7
        assert spec.groups() == ["sleep", "table3"]

    def test_cli_grid_names_match_campaigns(self):
        from repro.cli import _CAMPAIGN_GRIDS
        from repro.experiments.campaigns import GRIDS

        # cli.py mirrors GRIDS as a literal so building the parser never
        # imports the experiments stack; keep the two in sync.
        assert tuple(_CAMPAIGN_GRIDS) == tuple(GRIDS)

    def test_unknown_grid_rejected(self):
        with pytest.raises(ValueError, match="unknown grid"):
            build_campaign("nope")

    @pytest.mark.parametrize("site", sorted(TIME_LIMIT_SITES))
    def test_every_default_time_limit_reads_the_one_constant(
        self, site, monkeypatch
    ):
        # Identity, not equality: a site that restated the value as its own
        # literal would still compare equal.
        assert TIME_LIMIT_SITES[site](monkeypatch) is GRID_TIME_LIMIT

    @pytest.mark.parametrize(
        "grid, quick", sorted(MANIFEST_PINS),
        ids=[f"{grid}-{'quick' if quick else 'paper'}"
             for grid, quick in sorted(MANIFEST_PINS)])
    def test_manifest_bytes_are_pinned(self, tmp_path, grid, quick):
        store = ResultStore(tmp_path / "store")
        store.write_manifest(build_campaign(grid, quick=quick))
        digest = hashlib.sha256(store.manifest_path.read_bytes()).hexdigest()
        assert digest[:16] == MANIFEST_PINS[grid, quick]

    def test_single_table_grid_parameters_propagate(self):
        spec = build_campaign("table3", attack_time_limit=7.5)
        assert all(job.params["time_limit"] == 7.5 for job in spec.jobs)
        assert spec.metadata["attack_time_limit"] == 7.5
        assert not any("engine" in job.params for job in spec.jobs)
        assert "engine" not in spec.metadata
