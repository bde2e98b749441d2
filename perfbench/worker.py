"""One pass of one workload, in a fresh interpreter (started by ``run.py``).

The pass imports the program, builds the workload's inputs, then times the
fixed work: wall clock, process CPU time and peak resident set.  The output
checks and the work fingerprint run after the timer stops.  With
``--trace 1`` the layers' entry points are wrapped first (see
``layers.py``) and the per-layer metrics are added.  The result is written
as JSON to ``--out``.

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process; the set-up time runs from there to the end of input
building, so it includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import layers
import workloads  # imports the program: part of the set-up time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--order-seed", type=int, required=True)
    parser.add_argument("--lock-seed", type=int, default=None)
    parser.add_argument("--size", choices=("full", "min"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    plan = workloads.build(
        args.workload, lock_seed=args.lock_seed, order_seed=args.order_seed,
        size=args.size, workdir=Path(args.workdir),
    )
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if not args.setup_only:
        result.update(_timed_pass(plan, bool(args.trace)))
    Path(args.out).write_text(json.dumps(result))
    return 0


def _timed_pass(plan, traced: bool) -> dict:
    tracer = layers.LayerTracer()
    if traced:
        tracer.install(callers=[workloads])
    started_cpu = time.process_time()
    started = time.perf_counter()
    raw = plan.run()
    wall = time.perf_counter() - started
    cpu = time.process_time() - started_cpu
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reports, problems = plan.evaluate(raw)
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(reports),
        "failed": [{"cell": r.cell, "reason": r.reason} for r in reports if r.failed],
        "problems": problems,
        "fingerprints": {r.cell: r.fingerprint for r in reports},
        "work_digest": workloads.work_digest(reports),
        "notes": plan.notes,
        "environment": _environment(reports),
    }
    if traced:
        result["layers"] = layers.layer_metrics(tracer, wall)
        result["missing_entry_points"] = tracer.missing
    return result


def _environment(reports) -> dict:
    """Which solver backends and engines ran, and what the host offered."""
    from repro.engine.compiler import numpy_available
    from repro.sat import DEFAULT_BACKEND

    def seen(field):
        return sorted({str(r.fingerprint[field]) for r in reports
                       if r.fingerprint.get(field)})

    return {
        "python": sys.version.split()[0],
        "numpy": numpy_available(),
        "default_solver_backend": DEFAULT_BACKEND,
        "solver_backends_ran": seen("backend"),
        "engines_ran": seen("engine"),
    }


if __name__ == "__main__":
    sys.exit(main())
