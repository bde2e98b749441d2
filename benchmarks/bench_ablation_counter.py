"""Ablation: counter wrap versus saturate behaviour.

A wrapping counter re-uses the key schedule forever (the configuration the
paper evaluates); a saturating counter needs the key sequence only once and
then stays on the last key.  Both must preserve functionality under the
correct schedule; this benchmark measures the locking + verification cost of
each and checks the functional contract.  ``REPRO_BENCH_SMOKE=1`` halves
the equivalence-check sequences and their length.
"""

import pytest

from repro.benchmarks_data.itc99 import load_itc99
from repro.locking.cutelock_str import CuteLockStr
from repro.sim.equivalence import sequential_equivalence_check
from repro.sim.seqsim import apply_key_to_sequence


@pytest.mark.parametrize("saturate", [False, True], ids=["wrap", "saturate"])
def test_ablation_counter_mode(benchmark, saturate, perf_smoke):
    generated = load_itc99("b03")
    circuit = generated.circuit
    num_sequences = 2 if perf_smoke else 4
    sequence_length = 16 if perf_smoke else 32

    def run():
        locked = CuteLockStr(num_keys=4, key_width=3, num_locked_ffs=2,
                             saturate_counter=saturate, seed=3).lock(circuit)
        if saturate:
            # After the counter saturates the last scheduled key must be held.
            schedule = list(locked.schedule.values) + [locked.schedule.values[-1]] * 60
            verdict = sequential_equivalence_check(
                circuit, locked.circuit, key_schedule=schedule,
                key_inputs=locked.key_inputs, num_sequences=num_sequences,
                sequence_length=sequence_length,
            )
        else:
            verdict = sequential_equivalence_check(
                circuit, locked.circuit, key_schedule=locked.schedule.values,
                key_inputs=locked.key_inputs, num_sequences=num_sequences,
                sequence_length=sequence_length,
            )
        return verdict

    verdict = benchmark.pedantic(run, rounds=1, iterations=1)
    assert verdict.equivalent
