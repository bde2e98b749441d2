"""Wall-clock speedup of the parallel campaign executor over serial.

The campaign executor's job is to overlap independent experiment cells.
These bars measure exactly that overlap with a grid of fixed-duration
``sleep`` jobs, chosen deliberately: sleep cells have *known* ideal
wall-clock, so the measured ratio isolates the executor's fan-out,
queueing and result-store overhead from the attacks' CPU contention, and
the bar holds even on 2-core CI runners.

Run with:
    PYTHONPATH=src python -m pytest benchmarks/bench_campaign_throughput.py -q -s

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) for a reduced-size run.
"""

import pytest

from repro.campaign import CampaignSpec, JobSpec, ResultStore, run_campaign
from repro.perf import timed

#: Worker processes of the parallel runs.
WORKERS = 4


@pytest.fixture
def sleep_grid(perf_smoke):
    """``(jobs, seconds)`` of the sleep grid at the selected size."""
    return (8, 0.25) if perf_smoke else (16, 0.5)


def grid(jobs, seconds):
    return CampaignSpec(
        name="bench-campaign",
        jobs=[
            JobSpec(kind="sleep", group="bench",
                    params={"seconds": seconds, "marker": index})
            for index in range(jobs)
        ],
    )


def timed_run(jobs, seconds, *, workers):
    store = ResultStore(None)
    summary, elapsed = timed(
        lambda: run_campaign(grid(jobs, seconds), store, workers=workers)
    )
    assert summary.completed + summary.skipped == jobs, (
        f"campaign run did not cover the grid: {summary}")
    return elapsed


def test_parallel_campaign_speedup_bar(sleep_grid):
    """Parallel executor >= 2x faster than serial on the sleep grid."""
    jobs, seconds = sleep_grid
    serial = timed_run(jobs, seconds, workers=0)
    parallel = timed_run(jobs, seconds, workers=WORKERS)
    speedup, limit = serial / parallel, 2.0
    print(f"\ncampaign.executor_speedup: speedup {speedup:.2f} >= {limit:g}")
    assert speedup >= limit


def test_resume_skips_all_completed_cells_bar(sleep_grid, tmp_path):
    """Resume on a finished store must cost (almost) nothing.

    ``resume_fraction`` is resume wall-clock over the grid's serial sleep
    budget (``jobs * seconds``); the bar is "< half the budget".
    """
    jobs, seconds = sleep_grid
    store_dir = tmp_path / "store"
    run_campaign(grid(jobs, seconds), ResultStore(store_dir), workers=WORKERS)
    summary, elapsed = timed(
        lambda: run_campaign(grid(jobs, seconds), ResultStore(store_dir),
                             workers=WORKERS)
    )
    assert summary.executed == 0 and summary.skipped == jobs, (
        f"resume re-executed cells: {summary}")
    resume_fraction, limit = elapsed / (jobs * seconds), 0.5
    print(f"\ncampaign.resume_skip: resume_fraction {resume_fraction:.4f} <= {limit:g}")
    assert resume_fraction <= limit
