"""Benchmark / regeneration of Table I (Cute-Lock-Beh validation).

Prints the regenerated waveform table and asserts the paper's qualitative
result: the locked design matches the original under the scheduled keys and
diverges under wrong keys.  ``REPRO_BENCH_SMOKE=1`` halves the simulated
cycle count (16 to 8).
"""

from repro.experiments.table1 import run_table1


def test_table1_beh_validation(benchmark, perf_smoke):
    num_cycles = 8 if perf_smoke else 16
    table, artefacts = benchmark.pedantic(
        lambda: run_table1(num_cycles=num_cycles), rounds=1, iterations=1
    )
    print()
    print(table.to_text())
    assert artefacts["matches_correct"]
    assert artefacts["diverges_wrong"]
