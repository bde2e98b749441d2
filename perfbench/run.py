"""Run one workload of the paper-regeneration benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cutelock-attacks --seed 1 --seconds 40 --trace 0

Every pass of the workload runs in a fresh interpreter (``worker.py``).
With ``--trace 0`` the run repeats the fixed-work pass while ``--seconds``
allows (at least once) and reports the median pass: ``wall_s``, ``cpu_s``,
``peak_rss_mb``, ``pass_ratio`` (cells that did their fixed work ÷ cells
attempted) and ``setup_s`` (median over at least :data:`SETUP_SAMPLES`
fresh interpreters).  With ``--trace 1`` it runs one untraced and one traced
pass and reports the per-layer metrics of the traced one, including
``trace.overhead`` (traced wall ÷ untraced wall − 1).

``--seed`` shuffles the order in which the cells run; the cells and their
work are the same for every seed.  ``--lock-seed`` sets the workload seed
(the cells' lock seed); without it the experiment modules' default seeds apply.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full run record
(per-cell work fingerprints, work digest, environment) is written to
``.perfbench-runs/`` in the checkout.  The run refuses to time, and exits
non-zero, when a checking flag is set or the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"

sys.path.insert(0, str(HERE))
from layers import PER_LAYER  # noqa: E402  (the benchmark's own module)

#: End-to-end metrics printed with ``--trace 0``: (name, unit).
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)

WORKLOADS = ("cutelock-attacks", "baseline-attacks", "overhead-removal")

#: Flags that arm the program's self-checks and would distort timings.
CHECK_FLAGS = ("REPRO_CHECK_KERNELS", "REPRO_CHECK_SOLVER", "REPRO_BENCH_SMOKE")

#: Fresh interpreters whose set-up time ``setup_s`` is the median of.
SETUP_SAMPLES = 11

#: Most fixed-work passes one untraced run makes.
MAX_PASSES = 25

#: Seconds a whole run may take before it gives up (passes included).
RUN_LIMIT = 170.0


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


class Runner:
    """Spawns the passes of one run and keeps their scratch space."""

    def __init__(self, args: argparse.Namespace, workdir: Path) -> None:
        self.args = args
        self.workdir = workdir
        self.spawned = 0
        self.deadline = time.monotonic() + RUN_LIMIT

    def spawn(self, *, trace: bool = False, setup_only: bool = False) -> dict:
        """Run one pass (or only its set-up) in a fresh interpreter."""
        self.spawned += 1
        scratch = self.workdir / f"pass-{self.spawned}"
        scratch.mkdir(parents=True)
        out = scratch / "result.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SOURCES) + os.pathsep + env.get("PYTHONPATH", "")
        started = time.monotonic()
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload,
            "--order-seed", str(self.args.seed),
            "--size", self.args.size,
            "--trace", "1" if trace else "0",
            "--workdir", str(scratch),
            "--out", str(out),
            "--spawned-at", repr(started),
        ]
        if self.args.lock_seed is not None:
            command += ["--lock-seed", str(self.args.lock_seed)]
        if setup_only:
            command.append("--setup-only")
        try:
            subprocess.run(command, env=env, cwd=str(ROOT), check=True, stdout=sys.stderr,
                           timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"the run took longer than {RUN_LIMIT:.0f} s") from exc
        except subprocess.CalledProcessError as exc:
            raise BenchError(f"a pass exited with code {exc.returncode}") from exc
        record = json.loads(out.read_text())
        record["spawn_s"] = time.monotonic() - started
        shutil.rmtree(scratch, ignore_errors=True)
        return record


def _untraced(runner: Runner, seconds: float) -> tuple:
    """Fixed-work passes while ``seconds`` allow, then extra set-up samples."""
    deadline = time.monotonic() + seconds
    passes = [runner.spawn()]
    while (len(passes) < MAX_PASSES
           and time.monotonic() + statistics.median(p["spawn_s"] for p in passes) <= deadline):
        passes.append(runner.spawn())
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn(setup_only=True)["setup_s"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pass_ratio": (attempted - failed) / attempted if attempted else 0.0,
    }
    return passes, metrics, {"setup_samples": setups}


def _traced(runner: Runner) -> tuple:
    """One untraced and one traced pass; the per-layer metrics of the latter."""
    untraced = runner.spawn()
    traced = runner.spawn(trace=True)
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    extra = {
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "missing_entry_points": traced["missing_entry_points"],
    }
    return [untraced, traced], metrics, extra


def _source_digest() -> str:
    """Digest of the program's Python sources (the checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted(SOURCES.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCES)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles the order the cells run in")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long untraced passes are repeated (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--lock-seed", type=int, default=None,
                        help="workload seed: the cells' lock seeds")
    parser.add_argument("--size", choices=("full", "min"), default="full",
                        help="'min' is the test-sized workload, not a benchmark")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    armed = [flag for flag in CHECK_FLAGS if os.environ.get(flag, "") not in ("", "0")]
    if armed:
        print(f"refusing to time with {', '.join(armed)} set: unset it first",
              file=sys.stderr)
        return 3
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SOURCES}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    runner = Runner(args, workdir)
    try:
        if args.trace:
            passes, metrics, extra = _traced(runner)
        else:
            passes, metrics, extra = _untraced(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = sorted({p["work_digest"] for p in passes})
    problems = [problem for p in passes for problem in p["problems"]]
    if len(digests) != 1:
        problems.append(f"passes of one run did different work: digests {digests}")
    catalog = PER_LAYER if args.trace else END_TO_END
    units = {entry[0]: entry[1] for entry in catalog}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "lock_seeds": passes[0]["notes"].get("lock_seeds"),
        "trace": args.trace,
        "size": args.size,
        "seconds": args.seconds,
        "passes": len(passes),
        "work_digest": digests[0] if len(digests) == 1 else digests,
        "problems": problems,
        "failed_cells": [cell for p in passes for cell in p["failed"]],
        "fingerprints": passes[0]["fingerprints"],
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "environment": passes[0]["environment"],
        "pass_metrics": [
            {key: p[key] for key in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
            for p in passes
        ],
        **extra,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    runs = ROOT / ".perfbench-runs"
    runs.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"workload {args.workload}: {len(passes)} pass(es), work digest "
          f"{record['work_digest']}, lock seeds {record['lock_seeds']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for cell in record["failed_cells"]:
        print(f"FAILED CELL: {cell['cell']}: {cell['reason']}")
    if args.trace and extra["missing_entry_points"]:
        print(f"entry points not found: {', '.join(extra['missing_entry_points'])}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
