"""Run every experiment and assemble a combined report.

:func:`run_all` regenerates the full evaluation (quick mode by default) and
writes a Markdown report; ``python -m repro reproduce`` and
``examples/reproduce_paper.py`` call it, and so do the integration tests.

Since the :mod:`repro.campaign` refactor the sweep is declared as one
campaign grid (every table/figure cell is an independent job, see
:mod:`repro.experiments.campaigns`) and executed through the campaign
executor: ``workers=N`` fans the cells out over N worker processes,
``store_path`` persists per-cell results so a crashed or killed sweep can be
resumed, and ``job_timeout`` turns a runaway cell into a ``timeout`` row
instead of a lost evening.  The default (``workers=0``, no store) reproduces
the historical serial in-process behaviour — same tables, same return value.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.attacks.results import GRID_TIME_LIMIT
from repro.campaign.executor import run_campaign
from repro.campaign.progress import campaign_status, progress_printer, render_status
from repro.campaign.store import ResultStore
from repro.experiments.campaigns import aggregate_campaign, build_campaign
from repro.experiments.report import ExperimentTable, render_latex_tables


def run_all(
    *,
    quick: bool = True,
    attack_time_limit: float = GRID_TIME_LIMIT,
    output_path: Optional[str] = None,
    latex_path: Optional[str] = None,
    verbose: bool = True,
    workers: int = 0,
    store_path: Optional[str] = None,
    job_timeout: Optional[float] = None,
) -> Dict[str, ExperimentTable]:
    """Run every table/figure driver and return the tables by name.

    ``quick=True`` (default) runs the representative benchmark subsets; the
    full sweep (``quick=False``) covers every benchmark named in the paper,
    413 cells that take about 75 s serially on 2 shared vCPUs and about
    40 s with ``workers=2``.  With ``workers``/``store_path`` cells run in
    parallel, finished cells are never recomputed, and a rerun with the
    same ``store_path`` resumes instead of restarting.
    """

    def log(message: str) -> None:
        if verbose:
            print(message, flush=True)

    start = time.monotonic()
    spec = build_campaign("full", quick=quick, attack_time_limit=attack_time_limit)
    store = ResultStore(store_path)
    log(
        f"campaign {spec.name}: {len(spec.jobs)} jobs across groups "
        f"{', '.join(spec.groups())}"
        + (f" ({workers} workers)" if workers else " (serial)")
    )
    summary = run_campaign(
        spec,
        store,
        workers=workers,
        job_timeout=job_timeout,
        progress=progress_printer(log) if verbose else None,
    )
    if summary.skipped:
        log(f"resumed: {summary.skipped} cells already complete were skipped")
    if summary.timeouts or summary.errors:
        log(render_status(campaign_status(spec, store)))

    tables = aggregate_campaign(spec, store)
    elapsed = time.monotonic() - start
    log(f"done in {elapsed:.1f}s")

    if output_path:
        write_report(tables, output_path, elapsed=elapsed)
        log(f"report written to {output_path}")
    if latex_path:
        write_latex_report(tables, latex_path)
        log(f"LaTeX tables written to {latex_path}")
    return tables


def write_report(tables: Dict[str, ExperimentTable], path: str, *, elapsed: float = 0.0) -> Path:
    """Write all tables to one Markdown report file."""
    lines: List[str] = [
        "# Cute-Lock reproduction — regenerated evaluation",
        "",
        f"Total runtime: {elapsed:.1f}s",
        "",
    ]
    for table in tables.values():
        lines.append(table.to_text())
        lines.append("")
    output = Path(path)
    output.write_text("\n".join(lines))
    return output


def write_latex_report(tables: Dict[str, ExperimentTable], path: str) -> Path:
    """Write all tables as one LaTeX fragment (``\\input``-able in a paper)."""
    output = Path(path)
    output.write_text(render_latex_tables(tables.values()))
    return output
