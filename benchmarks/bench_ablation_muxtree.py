"""Ablation: MUX-tree cost versus key width and key count.

The layer-1 realisation (comparator + donor select instead of a full
2^ki-to-1 MUX) is a design choice worth quantifying: this benchmark sweeps
ki and k on a fixed circuit and reports the cell-count and area overhead
growth, which should be roughly linear in both parameters.
``REPRO_BENCH_SMOKE=1`` thins both sweeps to their endpoints.
"""

import os

import pytest

from repro.benchmarks_data.itc99 import load_itc99
from repro.locking.cutelock_str import CuteLockStr
from repro.synthesis.overhead import compare_overhead

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


@pytest.mark.parametrize("key_width", [1, 4] if SMOKE else [1, 2, 4, 8])
def test_ablation_overhead_vs_key_width(benchmark, key_width):
    circuit = load_itc99("b03").circuit
    transform = CuteLockStr(num_keys=4, key_width=key_width, num_locked_ffs=2, seed=1)

    def run():
        locked = transform.lock(circuit)
        return compare_overhead(locked, activity_vectors=16)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nki={key_width}: cells +{report.cell_overhead_pct:.1f}% "
          f"area +{report.area_overhead_pct:.1f}%")
    assert report.cell_overhead_pct >= 0


@pytest.mark.parametrize("num_keys", [2, 8] if SMOKE else [2, 4, 8, 16])
def test_ablation_overhead_vs_key_count(benchmark, num_keys):
    circuit = load_itc99("b03").circuit
    transform = CuteLockStr(num_keys=num_keys, key_width=3, num_locked_ffs=2, seed=1)

    def run():
        locked = transform.lock(circuit)
        return compare_overhead(locked, activity_vectors=16)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nk={num_keys}: cells +{report.cell_overhead_pct:.1f}% "
          f"area +{report.area_overhead_pct:.1f}%")
    assert report.cell_overhead_pct >= 0
