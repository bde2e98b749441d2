"""Result-store scaling: append throughput and shard-merge throughput.

Two hot paths grew with the sharding work and both must stay linear:

* ``ResultStore.append`` once recomputed the attempt number by scanning
  every stored record, O(n^2) over a sweep; the per-key counter keeps
  appends O(1) and the append bar fails if a rescan ever comes back.
* ``merge_stores`` folds N shard files into the canonical store; the merge
  bar also re-checks that re-merging is a byte-stable no-op.

Run with:
    PYTHONPATH=src python -m pytest benchmarks/bench_campaign_store.py -q -s

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) for a reduced-size run.
"""

import json

from repro.campaign import ResultStore, merge_stores
from repro.perf import timed


def test_append_throughput_bar(perf_smoke):
    """Sustained in-memory appends >= 5000/s (O(1) attempt counter)."""
    appends, keys = (5_000, 500) if perf_smoke else (20_000, 2_000)
    rate = 0.0
    for _ in range(3):
        store = ResultStore(None)

        def sweep():
            for index in range(appends):
                store.append({
                    "key": f"job-{index % keys:05d}",
                    "status": "completed",
                    "payload": {"value": index},
                })

        _, elapsed = timed(sweep)
        rate = max(rate, appends / elapsed)
        assert len(store) == appends
        assert store.record_for("job-00000")["attempt"] == appends // keys, (
            "per-key attempt counter drifted during the sweep")
    limit = 5_000
    print(f"\ncampaign.store_append: rate {rate:,.0f}/s >= {limit:,}/s")
    assert rate >= limit


def test_merge_throughput_bar(perf_smoke, tmp_path):
    """Shard merge >= 2000 records/s; re-merge is a byte-stable no-op."""
    shards, records_per_shard = 4, (1_000 if perf_smoke else 4_000)
    total = shards * records_per_shard
    root = tmp_path / "store"
    root.mkdir()
    # Write the shard files directly (append's per-record fsync is
    # deliberate durability work and would dominate the setup).
    for shard in range(shards):
        with (root / f"results-{shard + 1}of{shards}.jsonl").open("w") as handle:
            for index in range(records_per_shard):
                handle.write(json.dumps({
                    "key": f"job-{shard}-{index:05d}",
                    "status": "completed",
                    "payload": {"value": index},
                    "finished_at": 1_000_000.0 + shard + index,
                    "attempt": 1,
                }) + "\n")

    summary, elapsed = timed(lambda: merge_stores(root))
    assert summary.records_out == total and len(ResultStore(root)) == total

    # Re-merging (canonical + all shards) must be a byte-stable no-op.
    before = (root / "results.jsonl").read_bytes()
    again = merge_stores(root)
    assert (root / "results.jsonl").read_bytes() == before, (
        "re-merge rewrote the canonical store")
    assert again.duplicates == total

    rate, limit = total / elapsed, 2_000
    print(f"\ncampaign.store_merge: rate {rate:,.0f}/s >= {limit:,}/s")
    assert rate >= limit
