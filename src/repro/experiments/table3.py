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
keeps its original signature; ``workers``/``store``/``job_timeout`` opt into
parallel, resumable execution.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.attacks.bmc_attack import bmc_attack
from repro.attacks.kc2 import int_attack, kc2_attack
from repro.attacks.results import AttackOutcome, AttackResult, format_runtime
from repro.benchmarks_data.synthezza import SYNTHEZZA_PROFILES, load_synthezza, synthezza_names
from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import STATUS_COMPLETED, Record, ResultStore
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
    time_limit: float = 20.0,
    max_depth: int = 8,
    synthesis_style: str = "auto",
    seed: int = 3,
) -> List[JobSpec]:
    """Declare the Table III grid: one job per (benchmark, attack) cell."""
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
                "synthesis_style": synthesis_style,
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
        seed=int(params.get("seed", 3)),  # type: ignore[arg-type]
    ).lock(fsm)
    locked = locked_fsm.synthesize(style=str(params.get("synthesis_style", "auto")))
    # Strict ingestion-boundary validation: a synthesis/transform bug fails
    # the cell here (recorded as an error row) instead of mid-attack.
    validate_circuit(locked.circuit, strict=True)

    attack_name = str(params["attack"])
    result = ATTACKS[attack_name](
        locked,
        time_limit=float(params.get("time_limit", 20.0)),  # type: ignore[arg-type]
        max_depth=int(params.get("max_depth", 8)),  # type: ignore[arg-type]
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


def aggregate_table3(
    jobs: Sequence[JobSpec],
    records: Mapping[str, Record],
    *,
    redact_runtimes: bool = False,
) -> Tuple[ExperimentTable, Dict[str, List[AttackResult]]]:
    """Fold completed cell payloads back into the paper's Table III.

    Rows follow the job order of the spec — not completion order — so a
    parallel run reproduces the serial table.  ``redact_runtimes`` replaces
    the wall-clock columns with ``-`` (used when comparing runs for
    byte-identity: runtimes are the one legitimately nondeterministic field).
    """
    benchmarks: List[str] = []
    attack_names: List[str] = []
    cells: Dict[Tuple[str, str], JobSpec] = {}
    for job in jobs:
        name = str(job.params["benchmark"])
        attack = str(job.params["attack"])
        if name not in benchmarks:
            benchmarks.append(name)
        if attack not in attack_names:
            attack_names.append(attack)
        cells[(name, attack)] = job

    table = ExperimentTable(
        name="Table III",
        title="Cute-Lock-Beh security against logic attacks (NEOS BBO/INT/KC2 stand-ins)",
        columns=["Circuit", "Group", "# Keys (k)", "Key Size (ki)"]
        + [f"{name} outcome" for name in attack_names]
        + [f"{name} time" for name in attack_names],
    )
    raw: Dict[str, List[AttackResult]] = {}

    for name in benchmarks:
        profile = SYNTHEZZA_PROFILES[name]
        row: Dict[str, object] = {
            "Circuit": name,
            "Group": profile.group,
            "# Keys (k)": profile.num_keys,
            "Key Size (ki)": profile.key_width,
        }
        results: List[AttackResult] = []
        for attack_name in attack_names:
            job = cells.get((name, attack_name))
            record = records.get(job.key) if job is not None else None
            if record is not None and record.get("status") == STATUS_COMPLETED:
                payload = record.get("payload") or {}
                result = AttackResult.from_dict(payload["result"])  # type: ignore[index]
            else:
                result = placeholder_attack_result(attack_name, record)
            results.append(result)
            row[f"{attack_name} outcome"] = result.outcome.value
            row[f"{attack_name} time"] = (
                "-" if redact_runtimes else format_runtime(result.runtime_seconds)
            )
        raw[name] = results
        table.add_row(**row)

    broken = [
        (name, result.attack)
        for name, results in raw.items()
        for result in results
        if result.broke_defense
    ]
    table.notes.append(
        "no attack recovered a working key" if not broken else f"BROKEN: {broken}"
    )
    return table, raw


def run_table3(
    *,
    quick: bool = True,
    benchmarks: Optional[Sequence[str]] = None,
    attacks: Optional[Sequence[str]] = None,
    time_limit: float = 20.0,
    max_depth: int = 8,
    synthesis_style: str = "auto",
    seed: int = 3,
    workers: int = 0,
    store: Union[ResultStore, str, None] = None,
    job_timeout: Optional[float] = None,
) -> Tuple[ExperimentTable, Dict[str, List[AttackResult]]]:
    """Regenerate Table III.

    Parameters
    ----------
    quick:
        Run the representative subset (:data:`QUICK_BENCHMARKS`) instead of
        all 33 Synthezza benchmarks.
    benchmarks / attacks:
        Explicit benchmark / attack-mode selections (override ``quick``).
    time_limit / max_depth:
        Per-attack budget.
    workers / store / job_timeout:
        Campaign execution: ``workers=0`` (default) runs the grid serially
        in-process; ``workers=N`` fans cells out over N worker processes.
        ``store`` (a :class:`ResultStore` or directory path) persists cell
        results and enables resume; ``job_timeout`` bounds each cell's
        wall-clock.
    """
    jobs = table3_jobs(
        quick=quick, benchmarks=benchmarks, attacks=attacks,
        time_limit=time_limit, max_depth=max_depth,
        synthesis_style=synthesis_style, seed=seed,
    )
    spec = CampaignSpec(name="table3", jobs=jobs)
    result_store = store if isinstance(store, ResultStore) else ResultStore(store)
    run_campaign(spec, result_store, workers=workers, job_timeout=job_timeout,
                 # A driver call is a slice of the evaluation: never clobber a
                 # manifest that may describe a larger CLI-managed campaign.
                 write_manifest=False)
    return aggregate_table3(jobs, result_store.load_index())
