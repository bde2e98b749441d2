"""Table I — Cute-Lock-Beh validation.

The paper validates the behavioural lock by simulating the Synthezza
``bcomp`` benchmark locked with 19 key bits: under the scheduled (correct)
keys the locked design's outputs ``yck`` track the original outputs ``y`` on
every cycle, while a wrong key sequence makes ``ywk`` diverge.

The driver reproduces that waveform: it locks the ``bcomp`` stand-in FSM with
Cute-Lock-Beh, synthesises it, and simulates original / correct-key /
wrong-key side by side over a seeded random input sequence, reporting packed
hexadecimal input and output columns exactly like the paper's table.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.benchmarks_data.synthezza import SYNTHEZZA_PROFILES, load_synthezza
from repro.engine.packed import random_bits
from repro.experiments.report import ExperimentTable
from repro.locking.base import KeySchedule
from repro.locking.cutelock_beh import CuteLockBeh
from repro.sim.seqsim import SequentialSimulator, apply_key_to_sequence
from repro.sim.waveform import Waveform

#: Clock period (ns) used for the "Time (ns)" column, matching the paper.
CLOCK_PERIOD_NS = 20


def run_table1(
    *,
    benchmark: str = "bcomp",
    num_cycles: int = 16,
    seed: int = 1,
    synthesis_style: str = "auto",
) -> Tuple[ExperimentTable, Dict[str, object]]:
    """Regenerate Table I.  Returns the table and raw artefacts."""
    profile = SYNTHEZZA_PROFILES[benchmark]
    fsm = load_synthezza(benchmark)
    transform = CuteLockBeh(num_keys=profile.num_keys, key_width=profile.key_width, seed=seed)
    locked_fsm = transform.lock(fsm)
    locked = locked_fsm.synthesize(style=synthesis_style)

    rng = random.Random(seed)
    input_nets = [f"in_{i}" for i in range(fsm.num_inputs)]
    output_nets = [f"out_{i}" for i in range(fsm.num_outputs)]
    # Cycle by cycle, each input in order: one fair bit per input and cycle.
    width = len(input_nets)
    bits = random_bits(rng, num_cycles * width)
    vectors = [
        dict(zip(input_nets, bits[t * width:(t + 1) * width])) for t in range(num_cycles)
    ]

    original_wave = SequentialSimulator(locked.original).run(vectors)
    correct_vectors = apply_key_to_sequence(vectors, locked.key_inputs, locked.schedule.values)
    correct_wave = SequentialSimulator(locked.circuit).run(correct_vectors)
    # A maximally wrong schedule (bitwise complement of every scheduled key)
    # so the wrongful transition is taken on every cycle, as in the paper's
    # wrong-key column.
    wrong_schedule = KeySchedule(
        width=locked.schedule.width,
        values=tuple(v ^ ((1 << locked.schedule.width) - 1) for v in locked.schedule.values),
    )
    wrong_vectors = apply_key_to_sequence(vectors, locked.key_inputs, wrong_schedule.values)
    wrong_wave = SequentialSimulator(locked.circuit).run(wrong_vectors)

    input_order = list(reversed(input_nets))   # MSB first for hex packing
    output_order = list(reversed(output_nets))

    table = ExperimentTable(
        name="Table I",
        title=f"Cute-Lock-Beh validation on {benchmark} "
              f"(k={profile.num_keys}, ki={profile.key_width})",
        columns=["Time (ns)", "x (hex)", "y (hex)", "yck (hex)", "ywk (hex)"],
    )
    for cycle in range(num_cycles):
        table.add_row(**{
            "Time (ns)": cycle * CLOCK_PERIOD_NS,
            "x (hex)": format(Waveform.pack(vectors[cycle], input_order), "x"),
            "y (hex)": format(Waveform.pack(original_wave.rows[cycle].signals, output_order), "x"),
            "yck (hex)": format(Waveform.pack(correct_wave.rows[cycle].signals, output_order), "x"),
            "ywk (hex)": format(Waveform.pack(wrong_wave.rows[cycle].signals, output_order), "x"),
        })

    matches_correct = all(
        row["y (hex)"] == row["yck (hex)"] for row in table.rows
    )
    diverges_wrong = any(row["y (hex)"] != row["ywk (hex)"] for row in table.rows)
    table.notes.append(
        f"locked-with-correct-keys matches original on all cycles: {matches_correct}"
    )
    table.notes.append(
        f"locked-with-wrong-keys diverges from original: {diverges_wrong}"
    )

    artefacts = {
        "locked": locked,
        "locked_fsm": locked_fsm,
        "matches_correct": matches_correct,
        "diverges_wrong": diverges_wrong,
        "vectors": vectors,
    }
    return table, artefacts


def table1_jobs(
    *,
    benchmark: str = "bcomp",
    num_cycles: int = 16,
    seed: int = 1,
    synthesis_style: str = "auto",
) -> List["JobSpec"]:
    """Declare Table I as a (single-cell) campaign grid."""
    from repro.campaign.spec import JobSpec

    return [
        JobSpec(
            kind="table1",
            group="table1",
            params={
                "benchmark": benchmark,
                "num_cycles": num_cycles,
                "seed": seed,
                "synthesis_style": synthesis_style,
            },
        )
    ]


def run_table1_cell(params: Dict[str, object]) -> Dict[str, object]:
    """Campaign worker: run Table I and ship the table + verdicts as JSON.

    The circuit/waveform artefacts stay in the worker — only the rendered
    table and the two validation booleans travel through the result store.
    """
    table, artefacts = run_table1(**params)  # type: ignore[arg-type]
    return {
        "table": table.to_dict(),
        "matches_correct": bool(artefacts["matches_correct"]),
        "diverges_wrong": bool(artefacts["diverges_wrong"]),
    }
