"""Table III — Cute-Lock-Beh security against oracle-guided logic attacks.

For every Synthezza benchmark the paper locks the FSM with Cute-Lock-Beh
(using the per-benchmark ``k`` / ``ki`` of Table III) and runs the three NEOS
attack modes — BBO, INT and KC2.  The expected result is that none of them
recovers a working key (outcomes are CNS / wrong key / fail / timeout), while
the attack runtimes grow with benchmark size.

The driver mirrors that sweep with the reproduction's attack implementations
(:func:`~repro.attacks.bmc_attack.bmc_attack`,
:func:`~repro.attacks.kc2.int_attack`, :func:`~repro.attacks.kc2.kc2_attack`)
on the Synthezza stand-in FSMs.

The sweep is declared as a :mod:`repro.campaign` grid — one job per
(benchmark, attack) cell (:func:`table3_jobs`), executed by one worker call
(:func:`run_table3_cell`, which re-derives the locked design and every seed
from the job parameters alone), and folded back into the paper's table by
:func:`aggregate_table3` in job order, so parallel and serial executions
produce identical tables.  :func:`run_table3` wires the three together and
runs the cells serially in memory.  Table IV is the same experiment on
Cute-Lock-Str, so :func:`aggregate_attack_table` folds both tables.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.attacks.bmc_attack import bmc_attack
from repro.attacks.kc2 import int_attack, kc2_attack
from repro.attacks.results import (
    GRID_TIME_LIMIT,
    AttackOutcome,
    AttackResult,
    format_runtime,
)
from repro.benchmarks_data.synthezza import SYNTHEZZA_PROFILES, load_synthezza, synthezza_names
from repro.campaign.executor import run_in_memory
from repro.campaign.spec import JobSpec
from repro.campaign.store import STATUS_COMPLETED, Record
from repro.experiments.report import ExperimentTable
from repro.locking.cutelock_beh import CuteLockBeh
from repro.netlist.validate import validate_circuit

#: Benchmarks exercised in quick mode: one per size group.
QUICK_BENCHMARKS = ("bcomp", "acdl", "exxm")

#: The NEOS modes reproduced (column name -> attack callable).
ATTACKS: Dict[str, Callable[..., AttackResult]] = {
    "BBO": bmc_attack,
    "INT": int_attack,
    "KC2": kc2_attack,
}


def table3_jobs(
    *,
    quick: bool = True,
    benchmarks: Optional[Sequence[str]] = None,
    attacks: Optional[Sequence[str]] = None,
    time_limit: float = GRID_TIME_LIMIT,
    max_depth: int = 8,
    seed: int = 3,
) -> List[JobSpec]:
    """Declare the Table III grid: one job per (benchmark, attack) cell.

    Parameters
    ----------
    quick:
        Run the representative subset (:data:`QUICK_BENCHMARKS`) instead of
        all 33 Synthezza benchmarks.
    benchmarks / attacks:
        Explicit benchmark / attack-mode selections (override ``quick``).
    time_limit / max_depth:
        Per-attack budget.
    seed:
        The Cute-Lock-Beh seed.
    """
    if benchmarks is None:
        benchmarks = QUICK_BENCHMARKS if quick else synthezza_names()
    attack_names = list(attacks or ATTACKS.keys())
    return [
        JobSpec(
            kind="table3_cell",
            group="table3",
            params={
                "benchmark": name,
                "attack": attack_name,
                "time_limit": time_limit,
                "max_depth": max_depth,
                "seed": seed,
            },
        )
        for name in benchmarks
        for attack_name in attack_names
    ]


def run_table3_cell(params: Mapping[str, object]) -> Dict[str, object]:
    """Execute one Table III cell: lock the benchmark, run one attack.

    The locked design is re-derived from ``params`` (benchmark name + seed),
    so any worker process — serial, pooled, or a resumed session — computes
    the identical cell.
    """
    name = str(params["benchmark"])
    profile = SYNTHEZZA_PROFILES[name]
    fsm = load_synthezza(name)
    locked_fsm = CuteLockBeh(
        num_keys=profile.num_keys,
        key_width=profile.key_width,
        seed=int(params["seed"]),  # type: ignore[arg-type]
    ).lock(fsm)
    locked = locked_fsm.synthesize()
    # Strict ingestion-boundary validation: a synthesis/transform bug fails
    # the cell here (recorded as an error row) instead of mid-attack.
    validate_circuit(locked.circuit, strict=True)

    attack_name = str(params["attack"])
    result = ATTACKS[attack_name](
        locked,
        time_limit=float(params["time_limit"]),  # type: ignore[arg-type]
        max_depth=int(params["max_depth"]),  # type: ignore[arg-type]
    )
    return {
        "circuit": name,
        "group": profile.group,
        "num_keys": profile.num_keys,
        "key_width": profile.key_width,
        "attack": attack_name,
        "result": result.to_dict(),
    }


def placeholder_attack_result(attack: str, record: Optional[Record]) -> AttackResult:
    """Stand-in result for a cell whose job did not complete.

    A job-level ``timeout`` renders as the attack-timeout outcome (the cell's
    budget ran out, just enforced one level up); an ``error`` or missing
    record renders as FAIL.  Either way ``broke_defense`` stays False and the
    campaign status is preserved in the details.
    """
    status = str(record.get("status")) if record else "missing"
    outcome = AttackOutcome.TIMEOUT if status == "timeout" else AttackOutcome.FAIL
    details: Dict[str, object] = {"campaign_status": status}
    if record and record.get("error"):
        details["error"] = record["error"]
    runtime = float(record.get("runtime_seconds", 0.0)) if record else 0.0
    return AttackResult(
        attack=attack, outcome=outcome, runtime_seconds=runtime, details=details
    )


def aggregate_attack_table(
    jobs: Sequence[JobSpec],
    records: Mapping[str, Record],
    *,
    name: str,
    title: str,
    profile_columns: Sequence[str],
    profile: Callable[[str], Sequence[object]],
    redact_runtimes: bool,
) -> Tuple[ExperimentTable, Dict[str, List[AttackResult]]]:
    """Fold (benchmark, attack) cells into one security table (III or IV).

    Each row is a benchmark: its name, its ``profile(benchmark)`` values
    under ``profile_columns``, then one outcome and one time column per
    attack.  Rows and columns follow the job order of the spec — not
    completion order — so a parallel run reproduces the serial table.  A
    cell without a completed record renders through
    :func:`placeholder_attack_result`.  ``redact_runtimes`` replaces the
    wall-clock columns with ``-`` (used when comparing runs for
    byte-identity: runtimes are the one legitimately nondeterministic field).
    The note says whether any attack recovered a working key.
    """
    cells: Dict[Tuple[str, str], JobSpec] = {
        (str(job.params["benchmark"]), str(job.params["attack"])): job for job in jobs
    }
    benchmarks = list(dict.fromkeys(benchmark for benchmark, _ in cells))
    attack_names = list(dict.fromkeys(attack for _, attack in cells))
    table = ExperimentTable(
        name=name,
        title=title,
        columns=["Circuit", *profile_columns]
        + [f"{attack} outcome" for attack in attack_names]
        + [f"{attack} time" for attack in attack_names],
    )
    raw: Dict[str, List[AttackResult]] = {}

    for benchmark in benchmarks:
        row: Dict[str, object] = {"Circuit": benchmark}
        row.update(zip(profile_columns, profile(benchmark)))
        results: List[AttackResult] = []
        for attack in attack_names:
            job = cells.get((benchmark, attack))
            record = records.get(job.key) if job is not None else None
            if record is not None and record.get("status") == STATUS_COMPLETED:
                payload = record.get("payload") or {}
                result = AttackResult.from_dict(payload["result"])  # type: ignore[index]
            else:
                result = placeholder_attack_result(attack, record)
            results.append(result)
            row[f"{attack} outcome"] = result.outcome.value
            row[f"{attack} time"] = (
                "-" if redact_runtimes else format_runtime(result.runtime_seconds)
            )
        raw[benchmark] = results
        table.add_row(**row)

    broken = [
        (benchmark, result.attack)
        for benchmark, results in raw.items()
        for result in results
        if result.broke_defense
    ]
    table.notes.append(
        "no attack recovered a working key" if not broken else f"BROKEN: {broken}"
    )
    return table, raw


def aggregate_table3(
    jobs: Sequence[JobSpec],
    records: Mapping[str, Record],
    *,
    redact_runtimes: bool = False,
) -> Tuple[ExperimentTable, Dict[str, List[AttackResult]]]:
    """Fold completed cell payloads back into the paper's Table III."""

    def profile(benchmark: str) -> Tuple[object, ...]:
        entry = SYNTHEZZA_PROFILES[benchmark]
        return entry.group, entry.num_keys, entry.key_width

    return aggregate_attack_table(
        jobs, records,
        name="Table III",
        title="Cute-Lock-Beh security against logic attacks (NEOS BBO/INT/KC2 stand-ins)",
        profile_columns=("Group", "# Keys (k)", "Key Size (ki)"),
        profile=profile,
        redact_runtimes=redact_runtimes,
    )


def run_table3(**grid: Any) -> Tuple[ExperimentTable, Dict[str, List[AttackResult]]]:
    """Regenerate Table III: the :func:`table3_jobs` grid, run serially in memory.

    For a parallel, resumable or time-bounded run, pass the jobs to
    :func:`~repro.campaign.executor.run_campaign` with a
    :class:`~repro.campaign.store.ResultStore` and fold the store with
    :func:`aggregate_table3` (or run ``repro campaign run --grid table3``).
    """
    jobs = table3_jobs(**grid)
    return aggregate_table3(jobs, run_in_memory("table3", jobs))
