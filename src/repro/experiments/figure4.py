"""Figure 4 — overhead comparison of Cute-Lock-Str with DK-Lock.

The paper synthesises ITC'99 benchmarks with Cadence Genus (45 nm) in three
Cute-Lock-Str configurations and compares power, area, cell count and I/O
count against DK-Lock (10-bit keys, and keys sized to the circuit's inputs):

* Test Run 1: k = 2 keys, ki = n bits each (n = circuit input count);
* Test Run 2: k = 4 keys, ki = 3 bits each;
* Test Run 3: k = 16 keys, ki = 5 bits each.

The qualitative findings to reproduce: relative overhead shrinks as circuits
grow, and on the small/medium benchmarks Test Runs 1–2 undercut the DK-Lock
average.  This driver costs every configuration with the generic 45 nm model
(:mod:`repro.synthesis`) and reports one row per benchmark and metric.

The sweep is a :mod:`repro.campaign` grid with one job per (benchmark,
configuration) cell — ``Original``, the three Cute-Lock-Str test runs and
the two DK-Lock baselines — declared by :func:`figure4_jobs`, costed by
:func:`run_figure4_cell` and folded into the four metric tables by
:func:`aggregate_figure4`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.benchmarks_data.itc99 import itc99_names, load_itc99
from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import STATUS_COMPLETED, Record, ResultStore
from repro.experiments.report import ExperimentTable
from repro.locking.baselines.dklock import lock_dklock
from repro.locking.cutelock_str import CuteLockStr
from repro.netlist.validate import validate_circuit
from repro.synthesis.overhead import CircuitCost, analyze_circuit

#: Benchmarks exercised in quick mode.
QUICK_BENCHMARKS = ("b01", "b03", "b06", "b10", "b14")

#: The four metrics of Figure 4 (a)–(d), mapped to CircuitCost fields.
METRICS = {
    "power_uw": "Power (uW)",
    "area_um2": "Area (um2)",
    "cell_count": "Cell count",
    "io_count": "IO count",
}

#: Cap on key widths so Test Run 1 (ki = n) stays reasonable on wide designs.
MAX_KEY_WIDTH = 16

#: Column order of every metric table (= the per-benchmark configurations;
#: "DK-Lock avg" is derived at aggregation time).
CONFIGURATIONS = (
    "Original", "Test Run 1", "Test Run 2", "Test Run 3",
    "DK-Lock 10b", "DK-Lock nb",
)


def _cute_lock_configurations(num_inputs: int) -> Dict[str, Tuple[int, int]]:
    """(k, ki) per paper test run, given the benchmark's input count."""
    return {
        "Test Run 1": (2, max(1, min(num_inputs, MAX_KEY_WIDTH))),
        "Test Run 2": (4, 3),
        "Test Run 3": (16, 5),
    }


def figure4_jobs(
    *,
    quick: bool = True,
    benchmarks: Optional[Sequence[str]] = None,
    activity_vectors: int = 32,
    seed: int = 6,
) -> List[JobSpec]:
    """Declare the Figure 4 grid: one job per (benchmark, configuration)."""
    if benchmarks is None:
        benchmarks = QUICK_BENCHMARKS if quick else itc99_names()
    return [
        JobSpec(
            kind="figure4_cell",
            group="figure4",
            params={
                "benchmark": name,
                "label": label,
                "activity_vectors": activity_vectors,
                "seed": seed,
            },
        )
        for name in benchmarks
        for label in CONFIGURATIONS
    ]


def run_figure4_cell(params: Mapping[str, object]) -> Dict[str, object]:
    """Cost one (benchmark, configuration) cell with the 45 nm model.

    The configuration's (k, ki) — or the DK-Lock key width — is re-derived
    from the benchmark's input count inside the worker, exactly as the
    original serial driver did.
    """
    name = str(params["benchmark"])
    label = str(params["label"])
    activity_vectors = int(params.get("activity_vectors", 32))  # type: ignore[arg-type]
    seed = int(params.get("seed", 6))  # type: ignore[arg-type]
    generated = load_itc99(name)
    circuit = generated.circuit
    num_inputs = len(circuit.inputs)

    if label == "Original":
        cost = analyze_circuit(circuit, activity_vectors=activity_vectors, seed=seed)
        return {"circuit": name, "label": label, "cost": cost.to_dict()}
    if label in _cute_lock_configurations(num_inputs):
        num_keys, key_width = _cute_lock_configurations(num_inputs)[label]
        locked = CuteLockStr(
            num_keys=num_keys,
            key_width=key_width,
            num_locked_ffs=min(2, len(circuit.dffs)),
            seed=seed,
        ).lock(circuit)
    elif label in ("DK-Lock 10b", "DK-Lock nb"):
        width = 10 if label == "DK-Lock 10b" else max(1, min(num_inputs, MAX_KEY_WIDTH))
        locked = lock_dklock(circuit, key_width=width, seed=seed)
    else:
        raise ValueError(f"unknown Figure 4 configuration {label!r}")
    validate_circuit(locked.circuit, strict=True)
    # Cost the locked netlist only: the "Original" cell already costs the
    # unlocked circuit.
    cost = analyze_circuit(
        locked.circuit, activity_vectors=activity_vectors, seed=seed,
        key_bits=locked.correct_key_bits(0),
    )
    return {"circuit": name, "label": label, "cost": cost.to_dict()}


def aggregate_figure4(
    jobs: Sequence[JobSpec],
    records: Mapping[str, Record],
) -> Tuple[Dict[str, ExperimentTable], Dict[str, Dict[str, object]]]:
    """Fold completed cell payloads into the four per-metric tables.

    A benchmark is emitted only when all six of its configuration cells
    completed (a partial bar chart row is meaningless); the raw dict maps
    each emitted benchmark to its reconstructed ``CircuitCost`` objects.
    """
    benchmarks: List[str] = []
    cells: Dict[Tuple[str, str], JobSpec] = {}
    for job in jobs:
        name = str(job.params["benchmark"])
        if name not in benchmarks:
            benchmarks.append(name)
        cells[(name, str(job.params["label"]))] = job

    tables = {
        metric: ExperimentTable(
            name=f"Figure 4 ({label})",
            title=f"Overhead comparison of Cute-Lock-Str with DK-Lock — {label}",
            columns=["Circuit", "Original", "Test Run 1", "Test Run 2", "Test Run 3",
                     "DK-Lock 10b", "DK-Lock nb", "DK-Lock avg"],
        )
        for metric, label in METRICS.items()
    }
    raw: Dict[str, Dict[str, object]] = {}

    for name in benchmarks:
        costs: Dict[str, CircuitCost] = {}
        for label in CONFIGURATIONS:
            job = cells.get((name, label))
            record = records.get(job.key) if job is not None else None
            if record is None or record.get("status") != STATUS_COMPLETED:
                break
            payload = record.get("payload") or {}
            costs[label] = CircuitCost.from_dict(payload["cost"])  # type: ignore[index]
        if len(costs) != len(CONFIGURATIONS):
            continue  # at least one cell missing/failed: skip the benchmark row
        raw[name] = {"costs": costs}
        for metric in METRICS:
            values = {label: getattr(cost, metric) for label, cost in costs.items()}
            dk_avg = (values["DK-Lock 10b"] + values["DK-Lock nb"]) / 2
            tables[metric].add_row(**{
                "Circuit": name,
                "Original": round(values["Original"], 2),
                "Test Run 1": round(values["Test Run 1"], 2),
                "Test Run 2": round(values["Test Run 2"], 2),
                "Test Run 3": round(values["Test Run 3"], 2),
                "DK-Lock 10b": round(values["DK-Lock 10b"], 2),
                "DK-Lock nb": round(values["DK-Lock nb"], 2),
                "DK-Lock avg": round(dk_avg, 2),
            })

    # Qualitative checks mirrored from the paper's discussion.
    for metric, table in tables.items():
        if not table.rows:
            continue
        shrinking = _relative_overhead_shrinks(table)
        table.notes.append(
            "relative Cute-Lock-Str overhead decreases with circuit size: "
            f"{shrinking}"
        )
    return tables, raw


def run_figure4(
    *,
    quick: bool = True,
    benchmarks: Optional[Sequence[str]] = None,
    activity_vectors: int = 32,
    seed: int = 6,
    workers: int = 0,
    store: Union[ResultStore, str, None] = None,
    job_timeout: Optional[float] = None,
) -> Tuple[Dict[str, ExperimentTable], Dict[str, Dict[str, object]]]:
    """Regenerate Figure 4.

    Returns one :class:`ExperimentTable` per metric (keyed by the metric
    field name) plus the raw per-benchmark ``CircuitCost`` objects.  See
    :func:`~repro.experiments.table3.run_table3` for the campaign execution
    parameters (``workers`` / ``store`` / ``job_timeout``).
    """
    jobs = figure4_jobs(
        quick=quick, benchmarks=benchmarks,
        activity_vectors=activity_vectors, seed=seed,
    )
    spec = CampaignSpec(name="figure4", jobs=jobs)
    result_store = store if isinstance(store, ResultStore) else ResultStore(store)
    run_campaign(spec, result_store, workers=workers, job_timeout=job_timeout,
                 # A driver call is a slice of the evaluation: never clobber a
                 # manifest that may describe a larger CLI-managed campaign.
                 write_manifest=False)
    return aggregate_figure4(jobs, result_store.load_index())


def _relative_overhead_shrinks(table: ExperimentTable) -> bool:
    """True if the smallest benchmark's Test Run 2 relative overhead exceeds
    the largest benchmark's (the Figure 4 scaling trend)."""
    if len(table.rows) < 2:
        return True
    first, last = table.rows[0], table.rows[-1]

    def rel(row) -> float:
        base = float(row["Original"]) or 1.0
        return (float(row["Test Run 2"]) - base) / base

    return rel(first) >= rel(last)
