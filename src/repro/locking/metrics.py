"""Security-oriented metrics for locked circuits.

The logic-locking literature characterises a lock not only by which attacks
it survives but also by *output corruptibility* — how strongly a wrong key
perturbs the outputs — and by key-space statistics.  These helpers quantify
both for any :class:`~repro.locking.base.LockedCircuit`, and are used by the
examples and the ablation benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.engine.packed import (
    PackedSimulator,
    key_words,
    pack_bits,
    random_bits,
    stimulus_words,
)
from repro.locking.base import KeySchedule, LockedCircuit


@dataclass(frozen=True)
class CorruptibilityReport:
    """Output-corruption statistics of a locked circuit under wrong keys.

    Attributes
    ----------
    cycles_compared:
        Total number of (cycle, output) samples compared.
    corrupted_fraction:
        Fraction of compared samples where the wrong-key circuit differs from
        the original.
    first_divergence_cycles:
        Per trial, the first cycle at which any output diverged (None if the
        trial never diverged).
    trials:
        Number of wrong-key schedules evaluated.
    """

    cycles_compared: int
    corrupted_fraction: float
    first_divergence_cycles: List[Optional[int]]
    trials: int

    @property
    def always_diverges(self) -> bool:
        """True if every wrong-key trial diverged at some cycle."""
        return all(cycle is not None for cycle in self.first_divergence_cycles)


def _random_wrong_schedule(schedule: KeySchedule, rng: random.Random) -> KeySchedule:
    """A uniformly random schedule that differs from ``schedule`` somewhere."""
    while True:
        values = tuple(rng.randrange(1 << schedule.width) for _ in schedule.values)
        if values != schedule.values:
            return KeySchedule(width=schedule.width, values=values)


def output_corruptibility(
    locked: LockedCircuit,
    *,
    trials: int = 8,
    sequence_length: int = 32,
    num_sequences: int = 4,
    seed: int = 0,
) -> CorruptibilityReport:
    """Measure how strongly wrong key schedules corrupt the outputs.

    For each trial a random wrong schedule is drawn and the locked circuit is
    simulated side by side with the original over seeded random stimulus; the
    fraction of differing (cycle, output) samples and the first divergence
    cycle are recorded.  Each trial's sequences are the lanes of one
    bit-parallel run per circuit (:mod:`repro.engine`).
    """
    rng = random.Random(seed)
    original = locked.original
    shared_outputs = [o for o in original.outputs if o in set(locked.circuit.outputs)]
    functional_inputs = [
        n for n in locked.circuit.inputs if n not in set(locked.key_inputs)
    ]

    total_samples = 0
    corrupted_samples = 0
    first_divergences: List[Optional[int]] = []
    golden_sim = PackedSimulator(original)
    observed_sim = PackedSimulator(locked.circuit)
    lanes = num_sequences
    count = len(functional_inputs)
    stride = sequence_length * count
    mask = (1 << lanes) - 1

    for _ in range(trials):
        wrong = _random_wrong_schedule(locked.schedule, rng)
        first_divergence: Optional[int] = None
        # Stimulus is drawn sequence by sequence, each cycle functional
        # input by functional input, after the trial's wrong schedule
        # (simulation itself consumes no random bits).
        bits = random_bits(rng, lanes * stride)
        golden_state = golden_sim.initial_state_words(lanes)
        observed_state = observed_sim.initial_state_words(lanes)
        for cycle in range(sequence_length):
            observed_words = stimulus_words(
                bits, functional_inputs, start=cycle * count, stride=stride
            )
            golden_words = {net: observed_words.get(net, 0) for net in original.inputs}
            key_value = wrong.values[cycle % len(wrong.values)]
            observed_words.update(key_words(locked.key_inputs, key_value, mask))
            golden_out, golden_state = golden_sim.step_words(
                golden_words, golden_state, width=lanes
            )
            observed_out, observed_state = observed_sim.step_words(
                observed_words, observed_state, width=lanes
            )
            for net in shared_outputs:
                diff = golden_out[net] ^ observed_out[net]
                total_samples += lanes
                if diff:
                    corrupted_samples += bin(diff).count("1")
                    if first_divergence is None or cycle < first_divergence:
                        first_divergence = cycle
        first_divergences.append(first_divergence)

    fraction = corrupted_samples / total_samples if total_samples else 0.0
    return CorruptibilityReport(
        cycles_compared=total_samples,
        corrupted_fraction=fraction,
        first_divergence_cycles=first_divergences,
        trials=trials,
    )


def key_space_size(locked: LockedCircuit) -> int:
    """Number of distinct key *sequences* an attacker must consider.

    A conventional single-key lock with ki bits has ``2**ki`` candidates; a
    time-based multi-key lock with k scheduled values has ``2**(k*ki)``
    candidate schedules (the paper's core quantitative argument for multi-key
    locking).
    """
    return 1 << locked.schedule.total_bits


def effective_key_bits(locked: LockedCircuit) -> int:
    """log2 of :func:`key_space_size` — the secret's entropy in bits."""
    return locked.schedule.total_bits


def switching_activity_divergence(
    locked: LockedCircuit,
    *,
    trials: int = 4,
    cycles: int = 64,
    seed: int = 0,
) -> Dict[str, float]:
    """Toggle-activity signature of wrong keys (power-side-channel proxy).

    Simulates the locked circuit under its correct key schedule and under
    ``trials`` random wrong schedules on the same seeded stimulus, counting
    per-net toggles with the packed engine, and reports how far the wrong-key
    switching activity deviates from the correct-key baseline.  A large
    divergence means a wrong key is detectable from dynamic power alone —
    the activity-side analogue of :func:`output_corruptibility`.
    """
    from repro.engine.equivalence import packed_toggle_counts

    rng = random.Random(seed)
    circuit = locked.circuit
    simulator = PackedSimulator(circuit)
    key_inputs = locked.key_inputs
    functional_inputs = [n for n in circuit.inputs if n not in set(key_inputs)]
    bits = random_bits(rng, cycles * len(functional_inputs))
    stimulus = stimulus_words(bits, functional_inputs)

    def total_toggles(schedule: KeySchedule) -> int:
        # A key input's cycle word: bit t is its bit of the key of cycle t.
        values = schedule.values
        keyed = dict(stimulus)
        for index, net in enumerate(key_inputs):
            shift = len(key_inputs) - 1 - index
            keyed[net] = pack_bits(
                [(values[t % len(values)] >> shift) & 1 for t in range(cycles)]
            )
        return sum(
            packed_toggle_counts(circuit, keyed, cycles, simulator=simulator).values()
        )

    baseline = total_toggles(locked.schedule)
    deltas = []
    for _ in range(trials):
        wrong = _random_wrong_schedule(locked.schedule, rng)
        deltas.append(abs(total_toggles(wrong) - baseline))
    mean_delta = sum(deltas) / trials if trials else 0.0
    return {
        "baseline_toggles": float(baseline),
        "mean_abs_divergence": mean_delta,
        "max_abs_divergence": float(max(deltas, default=0)),
        "relative_divergence": mean_delta / baseline if baseline else 0.0,
    }


def structural_overhead_summary(locked: LockedCircuit) -> Dict[str, int]:
    """Quick structural deltas (gate/FF/pin counts) without the cost model."""
    return {
        "extra_gates": len(locked.circuit.gates) - len(locked.original.gates),
        "extra_dffs": len(locked.circuit.dffs) - len(locked.original.dffs),
        "extra_inputs": len(locked.circuit.inputs) - len(locked.original.inputs),
        "locked_ffs": len(locked.locked_ffs),
        "counter_bits": len(locked.counter_nets),
    }
