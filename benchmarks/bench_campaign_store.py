"""Result-store scaling: append throughput.

``ResultStore.append`` once recomputed the attempt number by scanning every
stored record, O(n^2) over a sweep; the per-key counter keeps appends O(1)
and the append bar fails if a rescan ever comes back.

Run with:
    PYTHONPATH=src python -m pytest benchmarks/bench_campaign_store.py -q -s

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) for a reduced-size run.
"""

from repro.campaign import ResultStore
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
