"""The benchmark's three fixed-work workloads and their output checks.

Each workload is built by :func:`build` into a :class:`Plan`:

* ``Plan.run()`` is the timed, fixed work: every cell runs serially in this
  process (one closed-loop client, ``workers=0``), then the paper's tables
  are aggregated from the results;
* ``Plan.evaluate(raw)`` runs after the timer stops.  It returns one
  :class:`CellReport` per cell (the fixed-work guard and the work
  fingerprint) and the list of checks against the paper that failed.

Attack cells get a wall-clock limit (:data:`ATTACK_TIME_LIMIT`) far above any
run, so they end on their own depth / iteration / per-call conflict caps.  A
cell that ends on the clock anyway, errors, or has a solver call that came
back ``limited`` is a failed cell.

``lock_seed`` is the workload seed: the lock seed of every cell.  ``None``
keeps the default seeds of the ``repro.experiments`` modules.
``order_seed`` only shuffles the order in which the cells run; the cells,
and so the work, are the same for every order.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.attacks import appsat_attack, double_dip_attack, sat_attack
from repro.attacks.results import AttackOutcome, AttackResult
from repro.benchmarks_data.iscas89 import load_iscas89
from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import STATUS_COMPLETED, ResultStore
from repro.experiments.figure4 import aggregate_figure4, figure4_jobs
from repro.experiments.table1 import table1_jobs
from repro.experiments.table2 import table2_jobs
from repro.experiments.table3 import aggregate_table3, table3_jobs
from repro.experiments.table4 import aggregate_table4, table4_jobs
from repro.experiments.table5 import aggregate_table5, table5_jobs
from repro.locking.baselines import lock_antisat, lock_rll, lock_sarlock, lock_ttlock
from repro.sim.logicsim import CombinationalSimulator

#: Per-attack wall-clock limit: far above any cell, so none ends on it.
ATTACK_TIME_LIMIT = 3600.0

#: Lock seed of the baseline-attacks cells when none is given.
BASELINE_DEFAULT_SEED = 7

#: Random vectors of the scalar re-check of every recovered baseline key.
RECHECK_VECTORS = 128


@dataclass
class CellReport:
    """Guard verdict and work fingerprint of one cell."""

    cell: str
    failed: bool
    reason: str
    fingerprint: Dict[str, object]


@dataclass
class Plan:
    """A built workload: its timed work and its untimed evaluation."""

    run: Callable[[], object]
    evaluate: Callable[[object], Tuple[List[CellReport], List[str]]]
    notes: Dict[str, object] = field(default_factory=dict)


def work_digest(reports: Sequence[CellReport]) -> str:
    """Digest of the per-cell fingerprints, independent of cell order."""
    body = json.dumps(
        sorted(([r.cell, r.fingerprint] for r in reports), key=lambda item: item[0]),
        sort_keys=True,
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def build(name: str, *, lock_seed: Optional[int], order_seed: int, size: str,
          workdir: Path) -> Plan:
    """Build workload ``name`` (``size`` is ``"full"`` or the test-sized ``"min"``)."""
    if name == "cutelock-attacks":
        return _cutelock_attacks(lock_seed, order_seed, size, workdir)
    if name == "baseline-attacks":
        return _baseline_attacks(lock_seed, order_seed, size)
    if name == "overhead-removal":
        return _overhead_removal(lock_seed, order_seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}")


# --------------------------------------------------------------------------- #
# guard and fingerprint helpers
# --------------------------------------------------------------------------- #
def _solver_fields(solver: Mapping[str, object]) -> Dict[str, int]:
    return {
        "calls": int(solver.get("solve_calls", 0)),
        "conflicts": int(solver.get("conflicts", 0)),
        "decisions": int(solver.get("decisions", 0)),
        "propagations": int(solver.get("propagations", 0)),
    }


def _attack_fingerprint(result: AttackResult) -> Dict[str, object]:
    solver = result.details.get("solver") or {}
    return {
        "outcome": result.outcome.value,
        "iterations": result.iterations,
        "oracle_queries": int(result.details.get("oracle_queries", 0)),
        "solver": _solver_fields(solver),
        "backend": str(solver.get("backend", "")),
        "engine": str(result.details.get("engine", "")),
    }


def _guard(status: str, reason: str, limited: int) -> str:
    """Why a cell counts as failed ("" when it did its fixed work)."""
    if status != STATUS_COMPLETED:
        return f"record status {status}"
    if "time limit" in reason:
        return f"ended on the clock: {reason}"
    if limited:
        return f"{limited} solver call(s) came back limited"
    return ""


def _stable(value: object) -> object:
    """``value`` without wall-clock fields, for payload fingerprints."""
    if isinstance(value, dict):
        return {
            key: _stable(item) for key, item in value.items()
            if "time" not in key and "seconds" not in key
        }
    if isinstance(value, list):
        return [_stable(item) for item in value]
    return value


def _record_report(cell: str, record: Optional[Mapping[str, object]]) -> CellReport:
    """Guard + fingerprint of one campaign record."""
    if record is None:
        return CellReport(cell, True, "no record", {"outcome": "missing"})
    status = str(record.get("status"))
    solver = record.get("solver") or {}
    payload = record.get("payload") or {}
    result = payload.get("result") if isinstance(payload, dict) else None
    if isinstance(result, dict):
        attack = AttackResult.from_dict(result)
        fingerprint = _attack_fingerprint(attack)
        reason = str(attack.details.get("reason") or "")
    else:
        body = json.dumps(_stable(payload), sort_keys=True)
        fingerprint = {
            "outcome": status,
            "payload": hashlib.sha256(body.encode("utf-8")).hexdigest()[:16],
            "solver": _solver_fields(solver),
        }
        reason = ""
    fingerprint["status"] = status
    why = _guard(status, reason, int(solver.get("limited", 0)))
    if record.get("error"):
        why = f"{why}: {record['error']}"
    return CellReport(cell, bool(why), why, fingerprint)


def _job_id(job: JobSpec) -> str:
    params = job.params
    parts = [job.group] + [
        str(params[name]) for name in ("benchmark", "label", "attack", "seed")
        if name in params
    ]
    return "/".join(parts)


def _run_jobs(jobs: Sequence[JobSpec], order_seed: int, store_dir: Path,
              campaign: str) -> Dict[str, Mapping[str, object]]:
    """Run ``jobs`` serially in a shuffled order into a fresh on-disk store."""
    order = list(jobs)
    random.Random(order_seed).shuffle(order)
    store = ResultStore(store_dir)
    run_campaign(CampaignSpec(name=campaign, jobs=order), store,
                 workers=0, write_manifest=False)
    return store.load_index()


# --------------------------------------------------------------------------- #
# cutelock-attacks
# --------------------------------------------------------------------------- #
#: Table IV rows run (all four attacks each).
CUTELOCK_TABLE4_BENCHMARKS = ("s27", "b01")

#: Table III attacks run on bcomp: the long BBO searches and KC2, whose
#: crunch phase no other cell reaches (INT already runs in Table IV).
CUTELOCK_TABLE3_ATTACKS = ("BBO", "KC2")


def _cutelock_attacks(lock_seed: Optional[int], order_seed: int, size: str,
                      workdir: Path) -> Plan:
    seed = {} if lock_seed is None else {"seed": lock_seed}
    if size == "min":
        jobs4 = table4_jobs(benchmarks=["s27"], time_limit=ATTACK_TIME_LIMIT, **seed)
        jobs3 = table3_jobs(benchmarks=["bcomp"], attacks=["INT"],
                            time_limit=ATTACK_TIME_LIMIT, **seed)
    else:
        # A pass must be short enough for a run to repeat it about ten times
        # and report the median: the s298 and b03 cells of Table IV's quick
        # grid take 2-15 s each, and Table III's acdl and exxm cells tens of
        # seconds to minutes.
        jobs4 = table4_jobs(benchmarks=list(CUTELOCK_TABLE4_BENCHMARKS),
                            time_limit=ATTACK_TIME_LIMIT, **seed)
        jobs3 = table3_jobs(benchmarks=["bcomp"], attacks=list(CUTELOCK_TABLE3_ATTACKS),
                            time_limit=ATTACK_TIME_LIMIT, **seed)
    jobs = jobs4 + jobs3

    def run() -> object:
        records = _run_jobs(jobs, order_seed, workdir / "store", "perfbench-cutelock")
        _, raw3 = aggregate_table3(jobs3, records)
        _, raw4 = aggregate_table4(jobs4, records)
        return records, raw3, raw4

    def evaluate(raw: object) -> Tuple[List[CellReport], List[str]]:
        records, raw3, raw4 = raw  # type: ignore[misc]
        reports = [_record_report(_job_id(job), records.get(job.key)) for job in jobs]
        problems = [
            f"{table} {circuit}/{result.attack} broke Cute-Lock ({result.outcome.value})"
            for table, raw_table in (("Table III", raw3), ("Table IV", raw4))
            for circuit, results in raw_table.items()
            for result in results
            if result.broke_defense
        ]
        return reports, problems

    seeds = sorted({int(job.params["seed"]) for job in jobs})
    return Plan(run, evaluate, {"lock_seeds": seeds})


# --------------------------------------------------------------------------- #
# baseline-attacks
# --------------------------------------------------------------------------- #
#: Attack and lock callables by name (a dict, like ``table3.ATTACKS``, so a
#: traced run can rebind them).
BASELINE_ATTACKS = {"sat": sat_attack, "double-dip": double_dip_attack, "appsat": appsat_attack}
BASELINE_LOCKS = {"sarlock": lock_sarlock, "antisat": lock_antisat,
                  "ttlock": lock_ttlock, "rll": lock_rll}

#: Stand-in circuit of the full-size baseline cells.
BASELINE_BENCHMARK = "s1196"

#: (attack, lock, lock keyword arguments) on :data:`BASELINE_BENCHMARK`.
#: Three-bit point-function keys keep a pass near 4 s (SARLock-5 alone takes
#: 7-14 s) while the SAT attack on each point-function lock still makes 40-50
#: short calls.
BASELINE_CELLS = (
    ("sat", "sarlock", {"num_key_bits": 3}),
    ("sat", "antisat", {"block_width": 3}),
    ("sat", "ttlock", {"num_key_bits": 3}),
    ("sat", "rll", {"num_key_bits": 32}),
    ("double-dip", "sarlock", {"num_key_bits": 3}),
    ("appsat", "rll", {"num_key_bits": 32}),
)

#: The test-sized cells, on s27 (too few nets for 64 key gates).
BASELINE_MIN_CELLS = (
    ("sat", "rll", {"num_key_bits": 4}),
    ("appsat", "rll", {"num_key_bits": 3}),
)


def _baseline_attacks(lock_seed: Optional[int], order_seed: int, size: str) -> Plan:
    seed = BASELINE_DEFAULT_SEED if lock_seed is None else lock_seed
    benchmark = "s27" if size == "min" else BASELINE_BENCHMARK
    cells = {
        f"{attack}/{lock}-{next(iter(kwargs.values()))}": (attack, lock, kwargs)
        for attack, lock, kwargs in (BASELINE_MIN_CELLS if size == "min" else BASELINE_CELLS)
    }
    order = list(cells)
    random.Random(order_seed).shuffle(order)

    def run() -> object:
        circuit = load_iscas89(benchmark).circuit
        outcomes = {}
        for name in order:
            attack, lock, kwargs = cells[name]
            try:
                locked = BASELINE_LOCKS[lock](circuit, seed=seed, **kwargs)
                result = BASELINE_ATTACKS[attack](locked, time_limit=ATTACK_TIME_LIMIT)
                outcomes[name] = (locked, result, "")
            except Exception as exc:  # noqa: BLE001 - a failed cell, not a crashed run
                outcomes[name] = (None, None, f"{type(exc).__name__}: {exc}")
        return outcomes

    def evaluate(raw: object) -> Tuple[List[CellReport], List[str]]:
        reports, problems = [], []
        for name in cells:
            locked, result, error = raw[name]  # type: ignore[index]
            if result is None:
                reports.append(CellReport(name, True, error, {"outcome": "error"}))
                problems.append(f"{name}: {error}")
                continue
            solver = result.details.get("solver") or {}
            why = _guard(STATUS_COMPLETED, str(result.details.get("reason") or ""),
                         int(solver.get("limited", 0)))
            reports.append(CellReport(name, bool(why), why, _attack_fingerprint(result)))
            if result.outcome is not AttackOutcome.CORRECT:
                problems.append(f"{name}: expected a correct key, got {result.outcome.value}")
            elif not _scalar_key_check(locked, result.key or {}, seed):
                problems.append(f"{name}: the scalar simulator refutes the recovered key")
        return reports, problems

    return Plan(run, evaluate, {"lock_seeds": [seed], "benchmark": benchmark})


def _scalar_key_check(locked, key: Mapping[str, int], seed: int) -> bool:
    """Re-check a recovered key with the scalar reference simulator.

    ``repro.sim``'s :class:`CombinationalSimulator` evaluates the scan views
    of the original and of the locked circuit under ``key`` on seeded random
    vectors, independently of the packed engine the attack verified with.
    """
    original = locked.original.combinational_view() if locked.original.dffs else locked.original
    candidate = locked.circuit.combinational_view() if locked.circuit.dffs else locked.circuit
    reference, unlocked = CombinationalSimulator(original), CombinationalSimulator(candidate)
    shared = [net for net in original.outputs if net in set(candidate.outputs)]
    rng = random.Random(seed)
    for _ in range(RECHECK_VECTORS):
        vector = {net: rng.getrandbits(1) for net in original.inputs}
        applied = {net: vector.get(net, 0) for net in candidate.inputs}
        applied.update(key)
        want, got = reference.outputs(vector), unlocked.outputs(applied)
        if any(want[net] != got[net] for net in shared):
            return False
    return True


# --------------------------------------------------------------------------- #
# overhead-removal
# --------------------------------------------------------------------------- #
#: Default lock seed of each grid's experiment module (Figure 4, Tables V, I, II).
OVERHEAD_DEFAULT_SEEDS = {"figure4": 6, "table5": 5, "table1": 1, "table2": 2}


def _overhead_removal(lock_seed: Optional[int], order_seed: int, size: str,
                      workdir: Path) -> Plan:
    scope = {"benchmarks": ["b01", "b03"]} if size == "min" else {"quick": False}
    seed = {grid: default if lock_seed is None else lock_seed
            for grid, default in OVERHEAD_DEFAULT_SEEDS.items()}
    grids = {
        "figure4": figure4_jobs(seed=seed["figure4"], **scope),
        "table5": table5_jobs(seed=seed["table5"], **scope),
        "table1": table1_jobs(seed=seed["table1"]),
        "table2": table2_jobs(seed=seed["table2"]),
    }
    jobs = [job for grid in grids.values() for job in grid]

    def run() -> object:
        records = _run_jobs(jobs, order_seed, workdir / "store", "perfbench-overhead")
        figure, _ = aggregate_figure4(grids["figure4"], records)
        table5, _ = aggregate_table5(grids["table5"], records)
        return records, figure, table5

    def evaluate(raw: object) -> Tuple[List[CellReport], List[str]]:
        records, figure, table5 = raw  # type: ignore[misc]
        reports = [_record_report(_job_id(job), records.get(job.key)) for job in jobs]
        problems = [f"Figure 4: {p}" for p in _figure4_problems(figure)]
        problems += [f"Table V: {p}" for p in _table5_problems(table5)]
        for grid in ("table1", "table2"):
            record = records.get(grids[grid][0].key) or {}
            payload = record.get("payload") or {}
            if not (payload.get("matches_correct") and payload.get("diverges_wrong")):
                problems.append(f"{grid}: correct keys must match and wrong keys diverge")
        return reports, problems

    return Plan(run, evaluate, {"lock_seeds": sorted(set(seed.values()))})


def _figure4_problems(tables) -> List[str]:
    """The overhead trend and the DK-Lock comparison of Figure 4."""
    rows = tables["cell_count"].rows
    if len(rows) < 2:
        return ["fewer than two benchmark rows"]

    def relative(row, column):
        return (row[column] - row["Original"]) / row["Original"]

    problems = []
    if relative(rows[0], "Test Run 2") < relative(rows[-1], "Test Run 2"):
        problems.append("relative overhead no longer shrinks with circuit size")
    if rows[0]["Test Run 1"] > rows[0]["DK-Lock avg"]:
        problems.append("the light Cute-Lock run no longer beats the DK-Lock average")
    return problems


def _table5_problems(table) -> List[str]:
    """FALL finds no key, and locking lowers the average DANA NMI."""
    rows = table.rows
    problems = []
    if not rows or any(row["FALL keys"] != 0 for row in rows):
        problems.append("FALL recovered a key (or no row completed)")
    unlocked = [row["NMI (unlocked)"] for row in rows if isinstance(row["NMI (unlocked)"], float)]
    locked = [row["NMI (locked)"] for row in rows if isinstance(row["NMI (locked)"], float)]
    if not unlocked or sum(locked) / len(locked) >= sum(unlocked) / len(unlocked):
        problems.append("locking did not lower the average DANA NMI")
    return problems
