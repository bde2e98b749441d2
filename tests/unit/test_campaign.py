"""Unit tests for the campaign subsystem: specs, store, executor, progress."""

import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.campaign import (
    CampaignSpec,
    JobSpec,
    MergeVerificationError,
    ResultStore,
    campaign_status,
    execute_job_attempt,
    job_key,
    measured_job_costs,
    merge_stores,
    register_job_kind,
    render_merge_summary,
    render_status,
    resolve_job_kind,
    run_campaign,
    shard_label,
)
from repro.campaign.jobs import sleep_job
from repro.experiments.campaigns import build_campaign


def sleep_jobs(count, **params):
    return [
        JobSpec(kind="sleep", group="sleep", params={"marker": i, **params})
        for i in range(count)
    ]


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
        assert spec.job_for(spec.jobs[1].key) is spec.jobs[1]

    def test_spec_serialisation_round_trip(self):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(3), metadata={"grid": "t"})
        rebuilt = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.name == spec.name
        assert rebuilt.metadata["grid"] == "t"
        assert [j.key for j in rebuilt.jobs] == [j.key for j in spec.jobs]


class TestSharding:
    def test_every_job_lands_in_exactly_one_shard(self):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(10))
        for count in (1, 2, 3, 7, 10, 16):
            shards = [spec.shard(index, count) for index in range(count)]
            keys = [job.key for shard in shards for job in shard.jobs]
            assert len(keys) == len(set(keys))  # disjoint
            assert sorted(keys) == sorted(job.key for job in spec.jobs)  # union

    def test_shards_preserve_spec_order(self):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(9))
        position = {job.key: index for index, job in enumerate(spec.jobs)}
        for index in range(4):
            order = [position[job.key] for job in spec.shard(index, 4).jobs]
            assert order == sorted(order)

    def test_shard_is_deterministic_and_labelled(self):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(5), metadata={"grid": "g"})
        shard = spec.shard(1, 3)
        again = spec.shard(1, 3)
        assert [j.key for j in shard.jobs] == [j.key for j in again.jobs]
        assert shard.name == spec.name  # same campaign, same manifest
        assert shard.metadata["grid"] == "g"
        assert shard.metadata["shard"] == {
            "index": 1, "count": 3, "label": "2of3", "strategy": "round-robin",
        }
        assert shard_label(1, 3) == "2of3"

    def test_invalid_shard_arguments_rejected(self):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(3))
        with pytest.raises(ValueError):
            spec.shard(3, 3)
        with pytest.raises(ValueError):
            spec.shard(-1, 3)
        with pytest.raises(ValueError):
            spec.shard(0, 0)

    def test_cost_shard_partitions_and_balances(self):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(8))
        # One dominant job plus light ones: LPT must isolate the heavy job.
        costs = {job.key: 1.0 for job in spec.jobs}
        costs[spec.jobs[0].key] = 100.0
        shards = [spec.shard(index, 2, costs=costs)
                  for index in range(2)]
        keys = [job.key for shard in shards for job in shard.jobs]
        assert sorted(keys) == sorted(job.key for job in spec.jobs)  # partition
        heavy_shard = next(s for s in shards if spec.jobs[0].key
                           in {j.key for j in s.jobs})
        # The heavy job's shard gets nothing else; the other shard gets all 7.
        assert len(heavy_shard.jobs) == 1
        assert heavy_shard.metadata["shard"]["strategy"] == "cost"
        # Deterministic: same inputs, same partition.
        again = spec.shard(0, 2, costs=costs)
        assert [j.key for j in again.jobs] == [j.key for j in shards[0].jobs]
        # Spec order is preserved within each shard (aggregation needs it).
        position = {job.key: index for index, job in enumerate(spec.jobs)}
        for shard in shards:
            order = [position[job.key] for job in shard.jobs]
            assert order == sorted(order)

    def test_cost_shard_mean_fills_missing_costs(self):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(6))
        costs = {spec.jobs[0].key: 10.0, spec.jobs[1].key: 30.0}
        shards = [spec.shard(index, 3, costs=costs)
                  for index in range(3)]
        keys = [job.key for shard in shards for job in shard.jobs]
        assert sorted(keys) == sorted(job.key for job in spec.jobs)

    def test_cost_shard_falls_back_to_round_robin_without_costs(self):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(6))
        for costs in (None, {}, {"not-a-job-key": 5.0}):
            for index in range(2):
                fallback = spec.shard(index, 2, costs=costs)
                assert [j.key for j in fallback.jobs] ==                     [j.key for j in spec.shard(index, 2).jobs]
                assert "round-robin" in fallback.metadata["shard"]["strategy"]

    def test_unknown_shard_strategy_rejected(self):
        """The costs alone choose the partition: no strategy keyword exists."""
        spec = CampaignSpec(name="c", jobs=sleep_jobs(2))
        for strategy in ("random", "cost", "round-robin"):
            with pytest.raises(TypeError):
                spec.shard(0, 2, strategy=strategy)

    def test_measured_costs_feed_cost_sharding(self, tmp_path):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(4))
        store = ResultStore(tmp_path / "store")
        run_campaign(spec, store, workers=0, write_manifest=False)
        costs = measured_job_costs(store)
        assert set(costs) == {job.key for job in spec.jobs}
        assert all(value >= 0.0 for value in costs.values())
        shards = [spec.shard(index, 2, costs=costs)
                  for index in range(2)]
        keys = [job.key for shard in shards for job in shard.jobs]
        assert sorted(keys) == sorted(job.key for job in spec.jobs)

    def test_shard_status_is_labelled(self, tmp_path):
        spec = CampaignSpec(name="demo", jobs=sleep_jobs(4))
        shard = spec.shard(0, 2)
        store = ResultStore(tmp_path / "store", shard=shard_label(0, 2))
        run_campaign(shard, store, workers=0, write_manifest=False)
        status = campaign_status(shard, store)
        assert status.shard == "1/2"
        assert "shard     : 1/2" in render_status(status)


class TestShardStores:
    def test_shard_store_writes_its_own_results_file(self, tmp_path):
        root = tmp_path / "store"
        shard_store = ResultStore(root, shard="1of2")
        shard_store.append({"key": "k1", "status": "completed"})
        assert (root / "results-1of2.jsonl").exists()
        assert not (root / "results.jsonl").exists()
        # The canonical store does not see shard records until a merge.
        assert ResultStore(root).record_for("k1") is None
        assert ResultStore(root, shard="1of2").record_for("k1") is not None

    def test_invalid_shard_tag_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="invalid shard tag"):
            ResultStore(tmp_path / "store", shard="../evil")


class TestMergeStores:
    def _run_sharded(self, root, spec, count):
        for index in range(count):
            run_campaign(
                spec.shard(index, count),
                ResultStore(root, shard=shard_label(index, count)),
                workers=0, write_manifest=False,
            )

    def test_merge_folds_disjoint_shards(self, tmp_path):
        root = tmp_path / "store"
        spec = CampaignSpec(name="c", jobs=sleep_jobs(5))
        self._run_sharded(root, spec, 2)
        summary = merge_stores(root)
        assert summary.records_in == 5
        assert summary.records_out == 5
        assert summary.duplicates == 0
        assert summary.keys == 5
        merged = ResultStore(root)
        assert len(merged) == 5
        assert campaign_status(spec, merged).missing == 0
        assert "5 read, 5 kept" in render_merge_summary(summary)

    def test_merge_is_idempotent_and_byte_stable(self, tmp_path):
        root = tmp_path / "store"
        spec = CampaignSpec(name="c", jobs=sleep_jobs(6))
        self._run_sharded(root, spec, 3)
        merge_stores(root)
        first = (root / "results.jsonl").read_bytes()
        summary = merge_stores(root)  # canonical + the 3 shard files again
        assert (root / "results.jsonl").read_bytes() == first
        assert summary.duplicates == 6  # every shard record already canonical
        assert summary.records_out == 6

    def test_merge_latest_wins_and_renumbers_attempts(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root, shard="1of2").append(
            {"key": "k1", "status": "error", "finished_at": 100.0})
        ResultStore(root, shard="2of2").append(
            {"key": "k1", "status": "completed", "finished_at": 200.0})
        summary = merge_stores(root)
        assert summary.conflicts == 1
        merged = ResultStore(root)
        assert len(merged) == 2  # history preserved, append-only semantics
        latest = merged.record_for("k1")
        assert latest["status"] == "completed"
        assert latest["attempt"] == 2  # renumbered in finish order

    def test_merge_accepts_stores_copied_from_other_hosts(self, tmp_path):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(4))
        local, remote = tmp_path / "local", tmp_path / "remote"
        run_campaign(spec.shard(0, 2), ResultStore(local, shard="1of2"),
                     workers=0, write_manifest=False)
        run_campaign(spec.shard(1, 2), ResultStore(remote, shard="2of2"),
                     workers=0, write_manifest=False)
        summary = merge_stores(local, extra=[remote])
        assert summary.records_out == 4
        assert campaign_status(spec, ResultStore(local)).missing == 0

    def test_merge_with_no_sources_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nothing to merge"):
            merge_stores(tmp_path / "empty")
        with pytest.raises(FileNotFoundError, match="does not exist"):
            merge_stores(tmp_path / "empty", extra=[tmp_path / "ghost.jsonl"])

    def test_merge_rejects_extra_dir_without_results(self, tmp_path):
        """An explicitly-named source directory that matches no results files
        (wrong directory level, typo'd rsync target) must fail loud, not
        silently contribute nothing to the merge."""
        ResultStore(tmp_path / "store", shard="1of1").append(
            {"key": "k1", "status": "completed"})
        wrong_level = tmp_path / "from-host-b"
        (wrong_level / "full").mkdir(parents=True)
        with pytest.raises(FileNotFoundError, match="no results"):
            merge_stores(tmp_path / "store", extra=[wrong_level])


class TestMergePrune:
    def _sharded_store(self, root, count=2, jobs=6):
        spec = CampaignSpec(name="c", jobs=sleep_jobs(jobs))
        for index in range(count):
            run_campaign(
                spec.shard(index, count),
                ResultStore(root, shard=shard_label(index, count)),
                workers=0, write_manifest=False,
            )
        return spec

    def test_prune_deletes_shard_files_after_verified_fold(self, tmp_path):
        root = tmp_path / "store"
        spec = self._sharded_store(root)
        shard_files = sorted(root.glob("results-*.jsonl"))
        assert len(shard_files) == 2
        summary = merge_stores(root, prune=True)
        assert sorted(summary.pruned) == shard_files
        assert not list(root.glob("results-*.jsonl"))
        assert (root / "results.jsonl").exists()
        merged = ResultStore(root)
        assert campaign_status(spec, merged).missing == 0
        # Re-merging the pruned store is a clean no-op on the canonical file.
        first = (root / "results.jsonl").read_bytes()
        merge_stores(root)
        assert (root / "results.jsonl").read_bytes() == first

    def test_prune_keeps_extra_sources(self, tmp_path):
        local, remote = tmp_path / "local", tmp_path / "remote"
        spec = CampaignSpec(name="c", jobs=sleep_jobs(4))
        run_campaign(spec.shard(0, 2), ResultStore(local, shard="1of2"),
                     workers=0, write_manifest=False)
        run_campaign(spec.shard(1, 2), ResultStore(remote, shard="2of2"),
                     workers=0, write_manifest=False)
        summary = merge_stores(local, extra=[remote], prune=True)
        # Local shard file pruned; the copied-in host's store is untouched.
        assert not list(local.glob("results-*.jsonl"))
        assert list(remote.glob("results-*.jsonl"))
        assert summary.records_out == 4

    def test_prune_refuses_when_fold_is_unverifiable(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        self._sharded_store(root)
        shard_files = sorted(root.glob("results-*.jsonl"))

        import repro.campaign.store as store_module

        original = store_module.durable_replace

        def truncating_replace(tmp, target, payload):
            # Simulate a torn write: the published canonical file loses its
            # tail, so it cannot cover every shard record.
            original(tmp, target, "".join(payload.splitlines(keepends=True)[:1]))

        monkeypatch.setattr(store_module, "durable_replace", truncating_replace)
        with pytest.raises(MergeVerificationError, match="refusing to prune"):
            merge_stores(root, prune=True)
        # Refusal path: every shard file is still there.
        assert sorted(root.glob("results-*.jsonl")) == shard_files

    def test_prune_spares_straggler_shard_files(self, tmp_path, monkeypatch):
        """A shard file that appears after the merge enumerated its sources
        (late rsync, straggler shard run) was neither folded nor verified —
        prune must leave it for the next merge instead of deleting it."""
        root = tmp_path / "store"
        self._sharded_store(root)
        shard_files = sorted(root.glob("results-*.jsonl"))

        import repro.campaign.store as store_module

        original_sources = store_module.merge_sources

        def sources_missing_straggler(r, extra=()):
            resolved = original_sources(r, extra)
            # Pretend the second shard file landed after source enumeration.
            return [path for path in resolved if path != shard_files[1]]

        monkeypatch.setattr(store_module, "merge_sources",
                            sources_missing_straggler)
        summary = merge_stores(root, prune=True)
        assert summary.pruned == [shard_files[0]]
        assert not shard_files[0].exists()
        assert shard_files[1].exists()  # straggler survives for the next fold

    def test_merge_without_prune_keeps_shard_files(self, tmp_path):
        root = tmp_path / "store"
        self._sharded_store(root)
        summary = merge_stores(root)
        assert summary.pruned == []
        assert len(list(root.glob("results-*.jsonl"))) == 2


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
        # Concurrent shard runs republish the same full-grid manifest; the
        # matching-bytes short-circuit must not touch the file again.
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

    def test_single_table_grid_parameters_propagate(self):
        spec = build_campaign("table3", attack_time_limit=7.5)
        assert all(job.params["time_limit"] == 7.5 for job in spec.jobs)
        assert spec.metadata["attack_time_limit"] == 7.5
        assert not any("engine" in job.params for job in spec.jobs)
        assert "engine" not in spec.metadata
