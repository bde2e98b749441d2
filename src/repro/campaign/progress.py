"""Campaign progress reporting: per-group status and live run logging.

:func:`campaign_status` folds a store's latest records against the spec.
Each record's ``solver`` block is rebuilt with
:meth:`~repro.sat.session.SolverTelemetry.from_dict` and summed with
:meth:`~repro.sat.session.SolverTelemetry.merge`, so the status lines and
the report's solver tables are projections of one fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import STATUS_COMPLETED, STATUS_TIMEOUT, Record, ResultStore
from repro.sat.session import SolverTelemetry


@dataclass
class _Tally:
    """Latest-record tallies over a set of jobs (one group, or a campaign)."""

    total: int = 0
    completed: int = 0
    timeouts: int = 0
    errors: int = 0
    missing: int = 0
    solver_records: int = 0  #: latest records that carried a solver block
    solver: SolverTelemetry = field(default_factory=SolverTelemetry)

    def note(self, record: Optional[Record]) -> None:
        """Fold one job's latest record (None: the job never finished)."""
        self.total += 1
        if record is None:
            self.missing += 1
            return
        block = record.get("solver")
        if isinstance(block, dict):
            self.solver_records += 1
            self.solver.merge(SolverTelemetry.from_dict(block))
        state = record.get("status")
        if state == STATUS_COMPLETED:
            self.completed += 1
        elif state == STATUS_TIMEOUT:
            self.timeouts += 1
        else:
            self.errors += 1


@dataclass
class GroupStatus(_Tally):
    """Latest-record tallies for one aggregation group."""

    group: str = ""


@dataclass
class CampaignStatus(_Tally):
    """Where a campaign stands: spec size vs latest store records."""

    name: str = ""
    groups: List[GroupStatus] = field(default_factory=list)

    @property
    def remaining(self) -> int:
        """Jobs a plain ``resume`` would still run (missing cells only)."""
        return self.missing

    @property
    def finished(self) -> bool:
        return self.missing == 0


def campaign_status(spec: CampaignSpec, store: ResultStore) -> CampaignStatus:
    """Tally the latest record per job against the spec, overall and per group.

    This is the one fold of a store's latest records: ``campaign status``
    and the report's solver tables both render from it.
    """
    status = CampaignStatus(name=spec.name)
    by_group: Dict[str, GroupStatus] = {}
    for job in spec.jobs:
        group = by_group.get(job.group)
        if group is None:
            group = by_group[job.group] = GroupStatus(group=job.group)
            status.groups.append(group)
        record = store.record_for(job.key)
        status.note(record)
        group.note(record)
    return status


def render_status(status: CampaignStatus) -> str:
    """Human-readable status block (the ``campaign status`` CLI output)."""
    lines = [
        f"campaign  : {status.name}",
        f"jobs      : {status.total}",
        f"completed : {status.completed}",
        f"timeouts  : {status.timeouts}",
        f"errors    : {status.errors}",
        f"remaining : {status.remaining}",
    ]
    if status.solver_records:
        solver = status.solver
        rate = (
            f", {solver.conflicts / solver.solve_seconds:,.0f} conflicts/s"
            if solver.solve_seconds > 0 else ""
        )
        lines.append(
            f"solver    : {solver.conflicts} conflicts, "
            f"{solver.decisions} decisions, {solver.propagations} propagations "
            f"({solver.solve_calls} solve calls, {solver.solve_seconds:.1f}s{rate})"
        )
        if solver.phase_seconds:
            # The live line: where solver time is going right now, from the
            # latest telemetry snapshot of every finished job so far — not
            # just an end-of-sweep aggregate.
            phases = ", ".join(
                f"{phase} {seconds:.1f}s"
                for phase, seconds in sorted(
                    solver.phase_seconds.items(),
                    key=lambda item: (-item[1], item[0]),
                )
            )
            lines.append(f"phases    : {phases}")
    if status.groups:
        lines.append("per group :")
        width = max(len(group.group or "-") for group in status.groups)
        for group in status.groups:
            name = (group.group or "-").ljust(width)
            lines.append(
                f"  {name}  {group.completed}/{group.total} completed"
                + (f", {group.timeouts} timeout" if group.timeouts else "")
                + (f", {group.errors} error" if group.errors else "")
                + (f", {group.missing} remaining" if group.missing else "")
            )
    return "\n".join(lines)


def _describe_record(record: Record) -> str:
    params = record.get("params") or {}
    label = record.get("kind", "?")
    runtime = record.get("runtime_seconds")
    runtime_text = f" in {runtime:.1f}s" if isinstance(runtime, (int, float)) else ""
    detail = ""
    if isinstance(params, dict):
        parts = [str(params[k]) for k in ("benchmark", "attack", "label") if k in params]
        if parts:
            detail = f" {'/'.join(parts)}"
    return f"{label}{detail} [{record.get('key', '?')}] {record.get('status')}{runtime_text}"


def progress_printer(
    log: Optional[Callable[[str], None]] = None,
) -> Callable[[Record, int, int], None]:
    """Build a ``run_campaign`` progress callback printing one line per job."""
    emit = log or (lambda message: print(message, flush=True))

    def _progress(record: Record, finished: int, pending_total: int) -> None:
        emit(f"  [{finished}/{pending_total}] {_describe_record(record)}")

    return _progress
