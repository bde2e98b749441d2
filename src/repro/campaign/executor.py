"""Campaign execution: serial in-process, or fanned out over worker processes.

Two modes, selected by ``workers``:

* ``workers == 0`` — **serial in-process**: jobs run one after another inside
  the calling process.  This is the deterministic reference mode the
  experiment drivers run in (:func:`run_in_memory`), and what the tests
  compare the parallel mode against.
* ``workers >= 1`` — **process pool**: jobs are fanned out over a
  ``concurrent.futures.ProcessPoolExecutor`` with ``workers`` workers.

Per-job wall-clock timeouts are enforced *inside* the executing process with
``SIGALRM`` (both modes), so a job that overruns is interrupted exactly where
it is and recorded as a ``timeout`` row — the pool keeps its worker and the
sweep keeps going.  A job that raises is recorded as an ``error`` row.
Payloads are coerced to plain JSON types inside the attempt, so a value JSON
cannot represent (a solver object, a lambda) completes with the identical
stringified payload in serial and pool modes, one it cannot coerce at all
(a circular reference) is an ``error`` row in both, and nothing unpicklable
ever crosses the pool boundary; a future that still fails at that boundary
without breaking the pool is an immediate ``error`` row, never a pointless
isolated-pool re-run.  A
worker that dies outright (segfault, OOM-kill) breaks the pool; the executor
records nothing for jobs that already finished (their records were appended
as they completed), rebuilds the pool, retries each not-yet-recorded job
once, and records an ``error`` row for any job that kills the pool twice.
Every finished-attempt record carries the attempt's resource metrics —
``runtime_seconds`` (wall clock), ``cpu_seconds`` (process CPU time) and
``max_rss_kb`` (peak RSS via ``getrusage``; None off-POSIX) — plus a
``solver`` block: the attempt's capture frame
(:func:`~repro.sat.session.capture_solver_telemetry`, decisions/
propagations/conflicts/… over every ``SolveSession`` the job created, up to
the moment a timeout interrupted it), taken in the process that ran the
job, so solver-level metrics flow from the CDCL inner loop all the way to
``campaign status`` / ``report``.

Resume is a property of the (spec, store) pair, not of this module: jobs
whose key already has a record in the store are skipped up front (completed
rows always; error/timeout rows unless ``retry_failed``).
"""

from __future__ import annotations

import signal
import sys
import threading
import time
import traceback
from concurrent.futures import CancelledError, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

try:  # POSIX-only; records carry max_rss_kb = None where it is unavailable
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platform
    _resource = None  # type: ignore[assignment]

from repro.campaign.jobs import execute_job
from repro.campaign.spec import CampaignSpec, JobSpec, _jsonable
from repro.sat.session import SolverTelemetry, capture_solver_telemetry
from repro.trace.writer import trace_to
from repro.campaign.store import (
    STATUS_COMPLETED,
    STATUS_ERROR,
    STATUS_TIMEOUT,
    Record,
    ResultStore,
)


class JobTimeout(Exception):
    """Raised inside a job when its per-job wall-clock budget expires."""


@contextmanager
def job_deadline(seconds: Optional[float]):
    """Interrupt the enclosed block with :class:`JobTimeout` after ``seconds``.

    SIGALRM-based, so it works for pure-Python jobs on POSIX when running in
    a process's main thread (which both executor modes do).  With ``seconds``
    falsy — or without SIGALRM / off the main thread — it is a no-op and the
    job runs unbounded.
    """
    usable = (
        seconds
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _expire(signum, frame):
        raise JobTimeout(f"job exceeded its {seconds:.3f}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in kB (None where unknown).

    ``getrusage`` reports the high-water mark of the whole process lifetime,
    so in a reused pool worker the value is "peak so far", an upper bound for
    the individual job — still the number capacity planning needs (can N
    workers of this kind fit on the host?).
    """
    if _resource is None:
        return None
    maxrss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, kB on Linux
        maxrss //= 1024
    return int(maxrss)


def _resource_fields(start_wall: float, start_cpu: float) -> Record:
    """Wall/CPU/RSS metrics every finished-attempt record carries."""
    return {
        "runtime_seconds": time.perf_counter() - start_wall,
        "cpu_seconds": max(0.0, time.process_time() - start_cpu),
        "max_rss_kb": peak_rss_kb(),
    }


def execute_job_attempt(
    kind: str,
    params: Dict[str, object],
    job_timeout: Optional[float] = None,
    trace_path: Union[str, Path, None] = None,
) -> Record:
    """Run one job attempt in this process and classify the outcome.

    Never raises: the return value is a partial record with ``status`` one of
    ``completed`` / ``timeout`` / ``error`` plus the payload or the failure
    context, and always carries the attempt's resource metrics
    (``runtime_seconds`` wall clock, ``cpu_seconds`` process CPU time,
    ``max_rss_kb`` peak RSS).  ``KeyboardInterrupt``/``SystemExit`` still
    propagate so an operator can stop a serial sweep.

    With ``trace_path`` set, the whole attempt runs inside an event-trace
    capture (see :mod:`repro.trace`): every solver/attack event lands in that
    file (overwritten on retry — latest attempt wins, like the store index)
    and the record carries the path under ``"trace"``.
    """
    start = time.perf_counter()
    start_cpu = time.process_time()
    tracing = (
        trace_to(trace_path, metadata={"job_kind": kind})
        if trace_path is not None
        else nullcontext()
    )
    with capture_solver_telemetry() as solver_telemetry, tracing:
        try:
            with job_deadline(job_timeout):
                payload = execute_job(kind, params)
            # Coerce to plain JSON types *inside* the attempt: a payload
            # holding e.g. a solver object or a lambda completes identically
            # whether the job ran in-process or in a pool worker (nothing
            # unpicklable ever crosses the pool boundary), and a payload JSON
            # cannot coerce at all (a circular reference) is this job's error
            # row in both modes rather than a pickling failure in one and a
            # crash in the other.
            payload = _jsonable(payload)
            record: Record = {"status": STATUS_COMPLETED, "payload": payload}
        except JobTimeout as exc:
            record = {
                "status": STATUS_TIMEOUT,
                "error": str(exc),
                "job_timeout": job_timeout,
            }
        except Exception as exc:
            record = {
                "status": STATUS_ERROR,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(limit=16),
            }
    record.update(_resource_fields(start, start_cpu))
    # Next to the resource metrics: the attempt-wide solver telemetry (zeros
    # for job kinds that never touched a SolveSession).
    record["solver"] = solver_telemetry.to_dict()
    if trace_path is not None:
        record["trace"] = str(trace_path)
    return record


def job_trace_path(trace_dir: Union[str, Path], key: str) -> Path:
    """Per-job trace file inside ``trace_dir``.

    Named by the job's content-hash key, so concurrent shards of one
    campaign (disjoint key sets) never collide and a resumed/retried job
    overwrites its own stale trace.
    """
    return Path(trace_dir) / f"{key}.trace.jsonl"


def _pool_worker(
    job: Dict[str, object],
    job_timeout: Optional[float],
    trace_dir: Optional[str] = None,
) -> Record:
    """Top-level pool target (must be picklable for any start method)."""
    trace_path = (
        job_trace_path(trace_dir, str(job["key"])) if trace_dir else None
    )
    record = execute_job_attempt(
        str(job["kind"]), dict(job["params"]), job_timeout,  # type: ignore[arg-type]
        trace_path=trace_path,
    )
    record.update({"key": job["key"], "kind": job["kind"], "group": job["group"]})
    return record


@dataclass
class RunSummary:
    """What one ``run_campaign`` invocation did (not the store's full state)."""

    total: int = 0          #: jobs in the spec
    skipped: int = 0        #: jobs satisfied by existing records (resume)
    executed: int = 0       #: attempts actually run this invocation
    completed: int = 0
    timeouts: int = 0
    errors: int = 0
    wall_seconds: float = 0.0

    def note(self, record: Record) -> None:
        self.executed += 1
        status = record.get("status")
        if status == STATUS_COMPLETED:
            self.completed += 1
        elif status == STATUS_TIMEOUT:
            self.timeouts += 1
        else:
            self.errors += 1


ProgressFn = Callable[[Record, int, int], None]


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    workers: int = 0,
    job_timeout: Optional[float] = None,
    retry_failed: bool = False,
    progress: Optional[ProgressFn] = None,
    write_manifest: bool = True,
    trace_dir: Union[str, Path, None] = None,
) -> RunSummary:
    """Execute ``spec``'s jobs, appending one record per finished attempt.

    Jobs whose key already has a record are skipped: completed rows always,
    error/timeout rows too unless ``retry_failed``.

    Parameters
    ----------
    workers:
        ``0`` = serial in-process (deterministic reference); ``N >= 1`` = a
        process pool with ``N`` workers (``1`` still buys crash isolation).
    job_timeout:
        Per-job wall-clock budget in seconds, ``> 0`` (None = unbounded).
    retry_failed:
        Re-run jobs whose latest record is an error or timeout row.
    progress:
        Optional ``fn(record, finished_count, pending_total)`` callback,
        invoked after each record is appended.
    trace_dir:
        Directory for per-job event traces (``<key>.trace.jsonl``, see
        :mod:`repro.trace`); None disables tracing.  The trace path is
        recorded on each result record under ``"trace"``.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if job_timeout is not None and job_timeout <= 0:
        raise ValueError(f"job_timeout must be > 0 seconds, got {job_timeout}")
    started = time.perf_counter()
    summary = RunSummary(total=len(spec.jobs))
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    if write_manifest and store.persistent:
        store.write_manifest(spec)

    pending: List[JobSpec] = []
    for job in spec.jobs:
        record = store.record_for(job.key)
        if record is not None:
            if record.get("status") == STATUS_COMPLETED or not retry_failed:
                summary.skipped += 1
                continue
        pending.append(job)

    def finish(job: JobSpec, body: Record) -> None:
        record = dict(body)
        record.update({
            "key": job.key, "kind": job.kind, "group": job.group,
            "params": dict(job.params),
        })
        stored = store.append(record)
        summary.note(stored)
        if progress is not None:
            progress(stored, summary.executed, len(pending))

    if workers == 0:
        for job in pending:
            trace_path = (
                job_trace_path(trace_dir, job.key) if trace_dir is not None else None
            )
            finish(job, execute_job_attempt(
                job.kind, dict(job.params), job_timeout, trace_path=trace_path,
            ))
    else:
        _run_pool(pending, workers, job_timeout, finish, trace_dir)

    summary.wall_seconds = time.perf_counter() - started
    return summary


def run_in_memory(name: str, jobs: List[JobSpec]) -> Dict[str, Record]:
    """Run ``jobs`` serially in this process; return their records by key.

    The experiment drivers' one-call execution: no store on disk, no
    manifest, no per-job timeout.  Parallel, resumable or time-bounded runs
    go through :func:`run_campaign` with a persistent :class:`ResultStore`.
    """
    store = ResultStore(None)
    run_campaign(CampaignSpec(name=name, jobs=jobs), store)
    return store.load_index()


def _run_pool(
    pending: List[JobSpec],
    workers: int,
    job_timeout: Optional[float],
    finish: Callable[[JobSpec, Record], None],
    trace_dir: Optional[Path] = None,
) -> None:
    """Fan ``pending`` out over a process pool, surviving broken pools.

    A worker dying outright (segfault, OOM-kill) breaks the whole pool, and
    every still-unfinished future in the round fails with it — including
    innocent jobs that merely shared the pool with the culprit.  So no
    **pool-level** failure is judged in the shared round: every job whose
    future failed with :class:`BrokenProcessPool` (or was cancelled by the
    breakage) is re-run in a **single-job pool**, where a crash is
    attributable to exactly that job and is recorded as its ``error`` row.
    A worker can also die before the last job is submitted; ``submit`` then
    raises :class:`BrokenProcessPool`, and that job and every later one go
    to the isolated re-runs too.
    Jobs that finished before the breakage keep their records; an innocent
    job re-run after a breakage has at-least-once (not exactly-once)
    semantics.

    A future that fails with any *other* exception did not break the pool —
    something could not cross the process boundary (``pickle`` raised, the
    worker survived).  Payload coercion in :func:`execute_job_attempt` makes
    that unreachable for well-behaved job kinds, but re-running such a job
    in an isolated pool would fail identically either way, so it is recorded
    as an ``error`` row immediately rather than re-run.
    """
    suspects: List[JobSpec] = []

    def _boundary_error(exc: BaseException) -> Record:
        return {
            "status": STATUS_ERROR,
            "error": (
                "job failed at the process-pool boundary (its params or "
                "payload could not cross the process boundary, e.g. an "
                f"unpicklable value): {type(exc).__name__}: {exc}"
            ),
            "traceback": traceback.format_exc(limit=16),
            "runtime_seconds": 0.0,
            "cpu_seconds": 0.0,
            "max_rss_kb": None,
            "solver": SolverTelemetry().to_dict(),
        }

    # Pool workers receive the directory (a plain string stays picklable for
    # any start method) and derive each job's trace path themselves.
    trace_arg = str(trace_dir) if trace_dir is not None else None
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {}
        for index, job in enumerate(pending):
            try:
                future = pool.submit(_pool_worker, job.to_dict(), job_timeout, trace_arg)
            except BrokenProcessPool:
                # An earlier job already killed its worker: this job and every
                # later one never reached the pool.
                suspects.extend(pending[index:])
                break
            futures[future] = job
        for future in as_completed(futures):
            job = futures[future]
            try:
                body = future.result()
            except (CancelledError, BrokenProcessPool):
                suspects.append(job)
                continue
            except Exception as exc:  # noqa: BLE001 - pool survived: job error
                body = _boundary_error(exc)
            finish(job, body)

    # Keep the spec's job order for the isolated re-runs (as_completed
    # yields in completion order).
    order = {job.key: index for index, job in enumerate(pending)}
    for job in sorted(suspects, key=lambda job: order[job.key]):
        with ProcessPoolExecutor(max_workers=1) as pool:
            future = pool.submit(_pool_worker, job.to_dict(), job_timeout, trace_arg)
            try:
                body = future.result()
            except (CancelledError, BrokenProcessPool) as exc:
                body = {
                    "status": STATUS_ERROR,
                    "error": (
                        "worker process died while running this job in an "
                        f"isolated pool: {type(exc).__name__}: {exc}"
                    ),
                    "runtime_seconds": 0.0,
                    "cpu_seconds": 0.0,
                    "max_rss_kb": None,
                    "solver": SolverTelemetry().to_dict(),
                }
            except Exception as exc:  # noqa: BLE001 - pool survived: job error
                body = _boundary_error(exc)
            finish(job, body)
