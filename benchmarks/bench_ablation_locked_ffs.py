"""Ablation: removal-attack resilience versus the number of locked flip-flops.

Section III-C: "locking one FF with different keys is enough to resist
oracle-guided SAT attacks, locking more FFs would provide more resilience
against dataflow and removal attacks."  This benchmark sweeps the number of
locked flip-flops on one ITC'99-like benchmark and reports the DANA NMI —
which should fall (or at least not rise) as more flip-flops are locked.
``REPRO_BENCH_SMOKE=1`` thins the sweep to its endpoints.
"""

import os

import pytest

from repro.attacks.dana import dana_attack
from repro.benchmarks_data.itc99 import load_itc99
from repro.locking.cutelock_str import CuteLockStr

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


@pytest.mark.parametrize("num_locked_ffs", [1, 8] if SMOKE else [1, 4, 8, 16])
def test_ablation_dana_nmi_vs_locked_ffs(benchmark, num_locked_ffs):
    generated = load_itc99("b10")

    def run():
        locked = CuteLockStr(num_keys=4, key_width=3, num_locked_ffs=num_locked_ffs,
                             donors_per_ff=2, seed=2).lock(generated.circuit)
        return dana_attack(locked, generated.register_groups)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    baseline = dana_attack(generated.circuit, generated.register_groups)
    print(f"\nlocked FFs={num_locked_ffs}: NMI {baseline.nmi_score:.2f} -> {report.nmi_score:.2f}")
    assert report.nmi_score <= baseline.nmi_score + 1e-9
