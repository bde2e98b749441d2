"""Table V — Cute-Lock-Str security against removal/dataflow attacks.

Two attacks are evaluated on Cute-Lock-Str-locked ITC'99 benchmarks:

* **DANA** register clustering, scored with NMI against the benchmark's
  ground-truth register words.  On unlocked designs DANA scores ≈ 0.87–0.99
  (average ≈ 0.95); the paper reports locked scores spread over 0.00–0.99
  with a 0.41 average.
* **FALL**, which must report zero candidate keys and zero confirmed keys on
  every locked benchmark.

The driver reports, per benchmark, the unlocked (baseline) NMI, the locked
NMI, and FALL's candidate/key counts and CPU time.

The sweep is a :mod:`repro.campaign` grid with one job per (benchmark,
attack) cell — the DANA cell scores both the unlocked baseline and the
locked design, the FALL cell runs the oracle-less key extraction — declared
by :func:`table5_jobs` and re-assembled by :func:`aggregate_table5`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.attacks.dana import DanaReport, dana_attack
from repro.attacks.fall import FallReport, fall_attack
from repro.benchmarks_data.itc99 import ITC99_PROFILES, itc99_names, load_itc99
from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import STATUS_COMPLETED, Record, ResultStore
from repro.experiments.report import ExperimentTable
from repro.locking.cutelock_str import CuteLockStr
from repro.netlist.validate import validate_circuit

#: Benchmarks exercised in quick mode.
QUICK_BENCHMARKS = ("b01", "b03", "b08", "b12")

#: Locking configuration used for the removal-attack study: several locked
#: flip-flops so the dataflow perturbation is visible (Section III-C notes
#: that locking more FFs increases dataflow/removal resilience).  Small
#: benchmarks end up fully locked (DANA collapses, NMI -> 0) while larger
#: ones are only partially locked, reproducing the wide NMI spread of the
#: paper's Table V.
DEFAULT_LOCKED_FFS = 8

#: The two removal attacks of Table V (cell grid axis).
REMOVAL_ATTACKS = ("DANA", "FALL")


def table5_jobs(
    *,
    quick: bool = True,
    benchmarks: Optional[Sequence[str]] = None,
    num_locked_ffs: int = DEFAULT_LOCKED_FFS,
    seed: int = 5,
    max_key_width: int = 8,
) -> List[JobSpec]:
    """Declare the Table V grid: one job per (benchmark, removal attack)."""
    if benchmarks is None:
        benchmarks = QUICK_BENCHMARKS if quick else itc99_names()
    return [
        JobSpec(
            kind="table5_cell",
            group="table5",
            params={
                "benchmark": name,
                "attack": attack,
                "num_locked_ffs": num_locked_ffs,
                "seed": seed,
                "max_key_width": max_key_width,
            },
        )
        for name in benchmarks
        for attack in REMOVAL_ATTACKS
    ]


def _lock_benchmark(params: Mapping[str, object]):
    name = str(params["benchmark"])
    profile = ITC99_PROFILES[name]
    generated = load_itc99(name)
    key_width = min(
        profile.key_width, int(params.get("max_key_width", 8))  # type: ignore[arg-type]
    )
    locked = CuteLockStr(
        num_keys=profile.num_keys,
        key_width=key_width,
        num_locked_ffs=min(
            int(params.get("num_locked_ffs", DEFAULT_LOCKED_FFS)),  # type: ignore[arg-type]
            len(generated.circuit.dffs),
        ),
        donors_per_ff=2,
        seed=int(params.get("seed", 5)),  # type: ignore[arg-type]
    ).lock(generated.circuit)
    # Strict ingestion-boundary validation: a generator or locking bug
    # fails the cell here (recorded as an error row) instead of mid-attack.
    validate_circuit(locked.circuit, strict=True)
    return generated, locked


def run_table5_cell(params: Mapping[str, object]) -> Dict[str, object]:
    """Execute one Table V cell (DANA scores both baseline and locked)."""
    name = str(params["benchmark"])
    attack = str(params["attack"])
    generated, locked = _lock_benchmark(params)
    if attack == "DANA":
        baseline = dana_attack(generated.circuit, generated.register_groups)
        attacked = dana_attack(locked, generated.register_groups)
        return {
            "circuit": name,
            "attack": attack,
            "nmi_unlocked": baseline.nmi_score or 0.0,
            "nmi_locked": attacked.nmi_score or 0.0,
            "dana_unlocked": baseline.to_dict(),
            "dana_locked": attacked.to_dict(),
        }
    if attack == "FALL":
        fall = fall_attack(locked)
        return {
            "circuit": name,
            "attack": attack,
            "candidates": fall.num_candidates,
            "keys": fall.num_keys,
            "cpu_time": fall.cpu_time,
            "fall": fall.to_dict(),
        }
    raise ValueError(f"unknown Table V attack {attack!r}")


def aggregate_table5(
    jobs: Sequence[JobSpec],
    records: Mapping[str, Record],
    *,
    redact_runtimes: bool = False,
) -> Tuple[ExperimentTable, Dict[str, Dict[str, object]]]:
    """Fold completed cell payloads back into the paper's Table V.

    Cells whose job errored or timed out render as ``-`` in their columns;
    their benchmarks are excluded from the aggregate NMI/FALL notes so a
    partial sweep still reports honest averages.
    """
    benchmarks: List[str] = []
    cells: Dict[Tuple[str, str], JobSpec] = {}
    for job in jobs:
        name = str(job.params["benchmark"])
        if name not in benchmarks:
            benchmarks.append(name)
        cells[(name, str(job.params["attack"]))] = job

    table = ExperimentTable(
        name="Table V",
        title="Cute-Lock-Str security against removal attacks (DANA + FALL)",
        columns=[
            "Circuit", "NMI (unlocked)", "NMI (locked)",
            "FALL candidates", "FALL keys", "FALL CPU time (s)",
        ],
    )
    raw: Dict[str, Dict[str, object]] = {}

    def completed_payload(name: str, attack: str) -> Optional[Dict[str, object]]:
        job = cells.get((name, attack))
        record = records.get(job.key) if job is not None else None
        if record is not None and record.get("status") == STATUS_COMPLETED:
            return record.get("payload") or {}  # type: ignore[return-value]
        return None

    for name in benchmarks:
        dana = completed_payload(name, "DANA")
        fall = completed_payload(name, "FALL")
        row: Dict[str, object] = {"Circuit": name}
        raw_entry: Dict[str, object] = {}
        if dana is not None:
            row["NMI (unlocked)"] = round(float(dana["nmi_unlocked"]), 2)  # type: ignore[arg-type]
            row["NMI (locked)"] = round(float(dana["nmi_locked"]), 2)  # type: ignore[arg-type]
            raw_entry["dana_unlocked"] = DanaReport.from_dict(dana["dana_unlocked"])  # type: ignore[arg-type]
            raw_entry["dana_locked"] = DanaReport.from_dict(dana["dana_locked"])  # type: ignore[arg-type]
        else:
            row["NMI (unlocked)"] = "-"
            row["NMI (locked)"] = "-"
        if fall is not None:
            row["FALL candidates"] = int(fall["candidates"])  # type: ignore[arg-type]
            row["FALL keys"] = int(fall["keys"])  # type: ignore[arg-type]
            row["FALL CPU time (s)"] = (
                "-" if redact_runtimes else round(float(fall["cpu_time"]), 3)  # type: ignore[arg-type]
            )
            raw_entry["fall"] = FallReport.from_dict(fall["fall"])  # type: ignore[arg-type]
        else:
            row["FALL candidates"] = "-"
            row["FALL keys"] = "-"
            row["FALL CPU time (s)"] = "-"
        raw[name] = raw_entry
        table.add_row(**row)

    unlocked_scores = [
        row["NMI (unlocked)"] for row in table.rows
        if isinstance(row["NMI (unlocked)"], float)
    ]
    locked_scores = [
        row["NMI (locked)"] for row in table.rows
        if isinstance(row["NMI (locked)"], float)
    ]
    if unlocked_scores:
        table.notes.append(
            f"average NMI unlocked={sum(unlocked_scores) / len(unlocked_scores):.2f}, "
            f"locked={sum(locked_scores) / len(locked_scores):.2f}"
        )
    fall_rows = [row for row in table.rows if isinstance(row["FALL keys"], int)]
    if fall_rows:
        table.notes.append(
            "FALL found no keys on any locked benchmark"
            if all(row["FALL keys"] == 0 for row in fall_rows)
            else "FALL recovered keys on some benchmarks (unexpected)"
        )
    return table, raw


def run_table5(
    *,
    quick: bool = True,
    benchmarks: Optional[Sequence[str]] = None,
    num_locked_ffs: int = DEFAULT_LOCKED_FFS,
    seed: int = 5,
    max_key_width: int = 8,
    workers: int = 0,
    store: Union[ResultStore, str, None] = None,
    job_timeout: Optional[float] = None,
) -> Tuple[ExperimentTable, Dict[str, Dict[str, object]]]:
    """Regenerate Table V.  Returns the table and per-benchmark raw reports.

    See :func:`~repro.experiments.table3.run_table3` for the campaign
    execution parameters (``workers`` / ``store`` / ``job_timeout``).
    """
    jobs = table5_jobs(
        quick=quick, benchmarks=benchmarks, num_locked_ffs=num_locked_ffs,
        seed=seed, max_key_width=max_key_width,
    )
    spec = CampaignSpec(name="table5", jobs=jobs)
    result_store = store if isinstance(store, ResultStore) else ResultStore(store)
    run_campaign(spec, result_store, workers=workers, job_timeout=job_timeout,
                 # A driver call is a slice of the evaluation: never clobber a
                 # manifest that may describe a larger CLI-managed campaign.
                 write_manifest=False)
    return aggregate_table5(jobs, result_store.load_index())
