"""Benchmark / regeneration of Table II (Cute-Lock-Str validation on s27).

``REPRO_BENCH_SMOKE=1`` halves the simulated cycle count (15 to 8).
"""

from repro.experiments.table2 import run_table2


def test_table2_str_validation(benchmark, perf_smoke):
    num_cycles = 8 if perf_smoke else 15
    table, artefacts = benchmark.pedantic(
        lambda: run_table2(num_cycles=num_cycles), rounds=1, iterations=1
    )
    print()
    print(table.to_text())
    assert artefacts["matches_correct"]
    assert artefacts["diverges_wrong"]
