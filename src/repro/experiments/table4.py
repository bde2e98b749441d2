"""Table IV — Cute-Lock-Str security against oracle-guided logic attacks.

For ISCAS'89 and ITC'99 benchmarks the paper locks the gate-level netlist with
Cute-Lock-Str (per-benchmark ``k`` / ``ki`` from Table IV) and runs NEOS's
BBO / INT / KC2 modes plus RANE; none recovers a working key.  The driver
mirrors the sweep with the reproduction's attacks on the benchmark stand-ins.

Like Table III, the sweep is a :mod:`repro.campaign` grid: one job per
(benchmark, attack) cell declared by :func:`table4_jobs`, executed by
:func:`run_table4_cell` (which re-derives the locked design from the job
parameters) and re-assembled in job order by :func:`aggregate_table4`, which
shares Table III's fold (:func:`~repro.experiments.table3.aggregate_attack_table`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.attacks.bmc_attack import bmc_attack
from repro.attacks.kc2 import int_attack, kc2_attack
from repro.attacks.rane import rane_attack
from repro.attacks.results import AttackResult
from repro.benchmarks_data.iscas89 import ISCAS89_PROFILES, iscas89_names, load_iscas89
from repro.benchmarks_data.itc99 import ITC99_PROFILES, itc99_names, load_itc99
from repro.campaign.executor import run_in_memory
from repro.campaign.spec import JobSpec
from repro.campaign.store import Record
from repro.experiments.report import ExperimentTable
from repro.experiments.table3 import aggregate_attack_table
from repro.locking.cutelock_str import CuteLockStr
from repro.netlist.validate import validate_circuit

#: Benchmarks exercised in quick mode.
QUICK_BENCHMARKS = ("s27", "s298", "b01", "b03")

#: Keep key widths attack-tractable for the pure-Python SAT back-end; the
#: paper's ki values (up to 37 bits) only grow the CNF linearly but make the
#: key-extraction search space enormous for a Python CDCL loop.
MAX_KEY_WIDTH_QUICK = 8


def _attack_table() -> Dict[str, Callable[..., AttackResult]]:
    return {"BBO": bmc_attack, "INT": int_attack, "KC2": kc2_attack, "RANE": rane_attack}


def _suite(name: str) -> Tuple[str, Any]:
    """(suite, profile) of a Table IV benchmark, without loading its netlist."""
    if name in ISCAS89_PROFILES:
        return "ISCAS'89", ISCAS89_PROFILES[name]
    if name in ITC99_PROFILES:
        return "ITC'99", ITC99_PROFILES[name]
    raise KeyError(f"unknown Table IV benchmark {name!r}")


def table4_jobs(
    *,
    quick: bool = True,
    benchmarks: Optional[Sequence[str]] = None,
    attacks: Optional[Sequence[str]] = None,
    time_limit: float = 20.0,
    max_depth: int = 8,
    rane_depth: int = 6,
    num_locked_ffs: int = 2,
    seed: int = 4,
    max_key_width: Optional[int] = None,
) -> List[JobSpec]:
    """Declare the Table IV grid: one job per (benchmark, attack) cell.

    ``quick``, ``benchmarks``, ``attacks``, ``time_limit`` and ``max_depth``
    are as in :func:`~repro.experiments.table3.table3_jobs`; ``rane_depth``
    is RANE's unrolling depth, and ``num_locked_ffs``/``seed`` configure
    Cute-Lock-Str.  ``max_key_width`` caps the per-benchmark ``ki``; it is
    resolved here (:data:`MAX_KEY_WIDTH_QUICK` in quick mode, uncapped
    otherwise) so the job parameters — and therefore the job keys — are
    fully explicit.
    """
    if benchmarks is None:
        benchmarks = QUICK_BENCHMARKS if quick else (iscas89_names() + itc99_names())
    attack_names = list(attacks or _attack_table().keys())
    if max_key_width is None:
        max_key_width = MAX_KEY_WIDTH_QUICK if quick else None
    return [
        JobSpec(
            kind="table4_cell",
            group="table4",
            params={
                "benchmark": name,
                "attack": attack_name,
                "time_limit": time_limit,
                "max_depth": max_depth,
                "rane_depth": rane_depth,
                "num_locked_ffs": num_locked_ffs,
                "seed": seed,
                "max_key_width": max_key_width,
            },
        )
        for name in benchmarks
        for attack_name in attack_names
    ]


def run_table4_cell(params: Mapping[str, object]) -> Dict[str, object]:
    """Execute one Table IV cell: lock the netlist, run one attack."""
    name = str(params["benchmark"])
    suite, profile = _suite(name)
    generated = load_iscas89(name) if suite == "ISCAS'89" else load_itc99(name)
    key_width = profile.key_width
    if params["max_key_width"] is not None:
        key_width = min(key_width, int(params["max_key_width"]))  # type: ignore[arg-type]
    locked = CuteLockStr(
        num_keys=profile.num_keys,
        key_width=key_width,
        num_locked_ffs=min(
            int(params["num_locked_ffs"]),  # type: ignore[arg-type]
            len(generated.circuit.dffs),
        ),
        seed=int(params["seed"]),  # type: ignore[arg-type]
    ).lock(generated.circuit)
    # Strict ingestion-boundary validation: a locking-transform bug fails
    # the cell here (recorded as an error row) instead of mid-attack.
    validate_circuit(locked.circuit, strict=True)

    attack_name = str(params["attack"])
    attack = _attack_table()[attack_name]
    time_limit = float(params["time_limit"])  # type: ignore[arg-type]
    if attack_name == "RANE":
        result = attack(
            locked, time_limit=time_limit,
            depth=int(params["rane_depth"]),  # type: ignore[arg-type]
        )
    else:
        result = attack(
            locked, time_limit=time_limit,
            max_depth=int(params["max_depth"]),  # type: ignore[arg-type]
        )
    return {
        "circuit": name,
        "suite": suite,
        "num_keys": profile.num_keys,
        "key_width": key_width,
        "attack": attack_name,
        "result": result.to_dict(),
    }


def aggregate_table4(
    jobs: Sequence[JobSpec],
    records: Mapping[str, Record],
    *,
    redact_runtimes: bool = False,
) -> Tuple[ExperimentTable, Dict[str, List[AttackResult]]]:
    """Fold completed cell payloads back into the paper's Table IV."""
    caps = [
        int(job.params["max_key_width"])  # type: ignore[arg-type]
        for job in jobs
        if job.params["max_key_width"] is not None
    ]
    max_key_width = caps[-1] if caps else None

    def profile(name: str) -> Tuple[object, ...]:
        suite, entry = _suite(name)
        key_width = entry.key_width
        if max_key_width is not None:
            key_width = min(key_width, max_key_width)
        return suite, entry.num_keys, key_width

    table, raw = aggregate_attack_table(
        jobs, records,
        name="Table IV",
        title="Cute-Lock-Str security against logic attacks (NEOS + RANE stand-ins)",
        profile_columns=("Suite", "# Keys (k)", "Key Size (ki)"),
        profile=profile,
        redact_runtimes=redact_runtimes,
    )
    if max_key_width is not None:
        table.notes.append(
            f"key widths capped at {max_key_width} bits for the pure-Python SAT back-end"
        )
    return table, raw


def run_table4(**grid: Any) -> Tuple[ExperimentTable, Dict[str, List[AttackResult]]]:
    """Regenerate Table IV: the :func:`table4_jobs` grid, run serially in memory.

    See :func:`~repro.experiments.table3.run_table3` for parallel, resumable
    or time-bounded runs.
    """
    jobs = table4_jobs(**grid)
    return aggregate_table4(jobs, run_in_memory("table4", jobs))
