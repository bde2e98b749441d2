"""Table II — Cute-Lock-Str validation.

The paper validates the structural lock on ISCAS'89 ``s27`` locked with the
key schedule 1, 3, 2, 0: the output ``G17`` of the locked circuit matches the
original under the scheduled keys (``G17ck``) and diverges under wrong keys
(``G17wk``).  The driver reproduces that waveform on the embedded ``s27``
netlist.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from repro.benchmarks_data.iscas89 import s27_circuit
from repro.engine.packed import random_bits
from repro.experiments.report import ExperimentTable
from repro.locking.base import KeySchedule
from repro.locking.cutelock_str import CuteLockStr
from repro.sim.seqsim import SequentialSimulator, apply_key_to_sequence

#: Clock period (ns) for the "Time (ns)" column, matching the paper.
CLOCK_PERIOD_NS = 20

#: The key schedule the paper uses for the s27 validation.
S27_SCHEDULE = KeySchedule(width=2, values=(1, 3, 2, 0))


def run_table2(**grid: Any) -> Tuple[ExperimentTable, Dict[str, object]]:
    """Regenerate Table II: the :func:`table2_jobs` cell, run in memory.

    Returns the table and raw artefacts (the locked design, the stimulus
    and the two validation verdicts).
    """
    (job,) = table2_jobs(**grid)
    return _table2(**job.params)  # type: ignore[arg-type]


def _table2(
    *, num_cycles: int, seed: int, num_locked_ffs: int,
) -> Tuple[ExperimentTable, Dict[str, object]]:
    """Table II and its artefacts for one explicit parameter set."""
    original = s27_circuit()
    transform = CuteLockStr(
        num_keys=S27_SCHEDULE.num_keys,
        key_width=S27_SCHEDULE.width,
        num_locked_ffs=num_locked_ffs,
        seed=seed,
    )
    locked = transform.lock(original, schedule=S27_SCHEDULE)

    rng = random.Random(seed)
    # Cycle by cycle, each input in order: one fair bit per input and cycle.
    width = len(original.inputs)
    bits = random_bits(rng, num_cycles * width)
    vectors = [
        dict(zip(original.inputs, bits[t * width:(t + 1) * width])) for t in range(num_cycles)
    ]

    original_wave = SequentialSimulator(original).run(vectors)
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

    table = ExperimentTable(
        name="Table II",
        title="Cute-Lock-Str validation on s27 (keys 1, 3, 2, 0)",
        columns=["Time (ns)", "G0", "G1", "G2", "G3", "G17", "G17ck", "G17wk"],
    )
    for cycle in range(num_cycles):
        row = {"Time (ns)": cycle * CLOCK_PERIOD_NS}
        for net in original.inputs:
            row[net] = vectors[cycle][net]
        row["G17"] = original_wave.rows[cycle].signals["G17"]
        row["G17ck"] = correct_wave.rows[cycle].signals["G17"]
        row["G17wk"] = wrong_wave.rows[cycle].signals["G17"]
        table.add_row(**row)

    matches_correct = all(row["G17"] == row["G17ck"] for row in table.rows)
    diverges_wrong = any(row["G17"] != row["G17wk"] for row in table.rows)
    table.notes.append(
        f"locked-with-correct-keys matches original on all cycles: {matches_correct}"
    )
    table.notes.append(f"locked-with-wrong-keys diverges from original: {diverges_wrong}")

    artefacts = {
        "locked": locked,
        "matches_correct": matches_correct,
        "diverges_wrong": diverges_wrong,
        "vectors": vectors,
    }
    return table, artefacts


def table2_jobs(
    *,
    num_cycles: int = 15,
    seed: int = 2,
    num_locked_ffs: int = 1,
) -> List["JobSpec"]:
    """Declare Table II as a (single-cell) campaign grid."""
    from repro.campaign.spec import JobSpec

    return [
        JobSpec(
            kind="table2",
            group="table2",
            params={
                "num_cycles": num_cycles,
                "seed": seed,
                "num_locked_ffs": num_locked_ffs,
            },
        )
    ]


def run_table2_cell(params: Dict[str, object]) -> Dict[str, object]:
    """Campaign worker: run Table II and ship the table + verdicts as JSON."""
    table, artefacts = _table2(**params)  # type: ignore[arg-type]
    return {
        "table": table.to_dict(),
        "matches_correct": bool(artefacts["matches_correct"]),
        "diverges_wrong": bool(artefacts["diverges_wrong"]),
    }
