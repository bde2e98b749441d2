"""Append-only JSONL result store with an in-memory latest-wins index.

Store layout (one directory per campaign)::

    <store>/
      manifest.json         # the CampaignSpec (name, metadata, ordered jobs)
      results.jsonl         # canonical: one JSON record per finished attempt
      results-<shard>.jsonl # per-shard stores (written independently)

``results.jsonl`` is strictly append-only: a re-run of a job (``--retry-
failed``) appends a new record rather than rewriting history, and the index
keeps the **latest** record per job key.  A record whose ``status`` is
``"completed"`` carries the job's JSON payload; ``"error"`` and ``"timeout"``
records carry the failure context instead.  Appends are flushed + fsynced per
record so a killed run (crash, SIGKILL, CI timeout) loses at most the job in
flight — the foundation of ``campaign resume``.

**Sharding.**  A store opened with a ``shard`` tag (``ResultStore(root,
shard="2of4")``) appends to its own ``results-2of4.jsonl``; shards of the
same campaign therefore never contend on a writer, whether they run as
processes on one machine or on different hosts against copies of the store
directory.  :func:`merge_stores` folds any set of shard files (plus the
canonical file, plus files copied in from other hosts) back into one
canonical ``results.jsonl`` — latest ``finished_at`` wins per key, exact
duplicates are dropped, attempts are renumbered per key in finish order, and
the output ordering/encoding is fully deterministic, so re-merging the same
sources is byte-stable (and a merged report matches a serial run's report).

``ResultStore(None)`` is an ephemeral in-memory store with the same API,
used when a driver just wants the executor semantics without persistence.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.campaign.spec import CampaignSpec, _jsonable
from repro.jsonutil import read_jsonl_objects

MANIFEST_NAME = "manifest.json"
RESULTS_NAME = "results.jsonl"
#: Shard result files are ``results-<tag>.jsonl`` next to the canonical file.
SHARD_RESULTS_GLOB = "results-*.jsonl"
#: Shard tags become file-name components; keep them boring.
_SHARD_TAG_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")

#: Record statuses written by the executor.
STATUS_COMPLETED = "completed"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUSES = (STATUS_COMPLETED, STATUS_ERROR, STATUS_TIMEOUT)

Record = Dict[str, object]


def _fsync_directory(path: Path) -> None:
    """Flush a directory entry so a rename survives power loss (best effort)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # platform without directory fds (or path raced away)
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def durable_replace(tmp: Path, target: Path, payload: str) -> None:
    """Write ``payload`` to ``tmp``, fsync it, rename over ``target``, fsync dir.

    The rename alone only guarantees the target is never *truncated*; without
    the fsyncs a crash between rename and writeback can publish an empty (or
    stale) file.  fsync-before-rename plus a directory fsync closes that hole.
    """
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    _fsync_directory(target.parent)


def read_records(path: Union[str, Path]) -> List[Record]:
    """Parse one results JSONL file into records.

    An undecodable **final** line is tolerated silently — that is the
    half-written tail a killed run legitimately leaves behind.  An
    undecodable line anywhere *else* is mid-file corruption: the line is
    still skipped (the rest of the file is usable) but a warning naming the
    file and line number is emitted, so records never vanish without a trace.
    The policy itself lives in :func:`repro.jsonutil.read_jsonl_objects` and
    is shared with the trace reader.
    """
    return read_jsonl_objects(
        path, label="result record", file_label="store file"
    )


class ResultStore:
    """JSONL-backed (or in-memory) record store for one campaign.

    ``shard`` selects the per-shard results file (``results-<shard>.jsonl``)
    instead of the canonical ``results.jsonl``; the manifest path is shared
    by all shards of a store directory.
    """

    def __init__(
        self, root: Union[str, Path, None], *, shard: Optional[str] = None
    ) -> None:
        if shard is not None and not _SHARD_TAG_RE.match(shard):
            raise ValueError(
                f"invalid shard tag {shard!r}: expected letters/digits/._- "
                "(it becomes part of the results file name)"
            )
        self.root: Optional[Path] = Path(root) if root is not None else None
        self.shard: Optional[str] = shard
        self._records: List[Record] = []
        self._index: Dict[str, Record] = {}
        self._attempts: Dict[object, int] = {}
        if self.root is not None and self.results_path.exists():
            self._load()

    # ------------------------------------------------------------------ paths
    @property
    def manifest_path(self) -> Path:
        if self.root is None:
            raise ValueError("in-memory store has no manifest path")
        return self.root / MANIFEST_NAME

    @property
    def results_path(self) -> Path:
        if self.root is None:
            raise ValueError("in-memory store has no results path")
        if self.shard is None:
            return self.root / RESULTS_NAME
        return self.root / f"results-{self.shard}.jsonl"

    @property
    def persistent(self) -> bool:
        return self.root is not None

    # --------------------------------------------------------------- manifest
    def has_manifest(self) -> bool:
        return self.root is not None and self.manifest_path.exists()

    def write_manifest(self, spec: CampaignSpec) -> None:
        """Persist the spec so ``resume``/``status``/``report`` can rebuild it."""
        if self.root is None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(spec.to_dict(), indent=2, sort_keys=False) + "\n"
        # Concurrent shard runs of one campaign all (re)write the same
        # full-grid manifest; skip the write when the published bytes already
        # match rather than churning the file.
        if self.manifest_path.exists():
            try:
                if self.manifest_path.read_text() == payload:
                    return
            except OSError:
                pass
        # Write-then-rename (with fsyncs) so a crash mid-write can neither
        # truncate the manifest nor publish an empty one.  The tmp name is
        # per-process so concurrent shard runs cannot tear each other's
        # in-flight write; os.replace keeps the publish itself atomic.
        tmp = self.manifest_path.with_name(f"{MANIFEST_NAME}.tmp.{os.getpid()}")
        durable_replace(tmp, self.manifest_path, payload)

    def read_manifest(self) -> CampaignSpec:
        if not self.has_manifest():
            raise FileNotFoundError(
                f"no campaign manifest at {self.root}; run "
                "`python -m repro campaign run --store ...` first"
            )
        return CampaignSpec.from_dict(json.loads(self.manifest_path.read_text()))

    # ---------------------------------------------------------------- records
    def _load(self) -> None:
        self._records = []
        self._index = {}
        self._attempts = {}
        for record in read_records(self.results_path):
            self._ingest(record)

    def _ingest(self, record: Record) -> None:
        self._records.append(record)
        key = record.get("key")
        attempt = record.get("attempt")
        try:
            seen = self._attempts.get(key, 0) + 1
            if isinstance(attempt, int) and attempt > seen:
                seen = attempt
            self._attempts[key] = seen
        except TypeError:  # unhashable key value; keep the record anyway
            pass
        if isinstance(key, str):
            self._index[key] = record

    def _next_attempt(self, key: object) -> int:
        try:
            return self._attempts.get(key, 0) + 1
        except TypeError:
            return 1

    def append(self, record: Record) -> Record:
        """Append one finished-attempt record (latest record wins per key)."""
        record = dict(record)
        record.setdefault("finished_at", time.time())
        # O(1) per append: the per-key counter is maintained by _ingest
        # instead of rescanning every stored record (which made a sweep of n
        # jobs O(n^2) in store appends).
        record.setdefault("attempt", self._next_attempt(record.get("key")))
        record = _jsonable(record)  # type: ignore[assignment]
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            with self.results_path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=False) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        self._ingest(record)
        return record

    def record_for(self, key: str) -> Optional[Record]:
        """Latest record for ``key`` (or None if the job never finished)."""
        return self._index.get(key)

    def load_index(self) -> Dict[str, Record]:
        """Latest record per job key."""
        return dict(self._index)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------ stats
    def counts(self, spec: Optional[CampaignSpec] = None) -> Dict[str, int]:
        """Latest-record status counts (restricted to ``spec``'s jobs if given).

        Includes a ``"missing"`` bucket when a spec is supplied: jobs with no
        record at all — the cells a resume still has to run.
        """
        counts = {status: 0 for status in STATUSES}
        if spec is None:
            for record in self._index.values():
                status = str(record.get("status", STATUS_ERROR))
                counts[status] = counts.get(status, 0) + 1
            return counts
        counts["missing"] = 0
        for job in spec.jobs:
            record = self._index.get(job.key)
            if record is None:
                counts["missing"] += 1
            else:
                status = str(record.get("status", STATUS_ERROR))
                counts[status] = counts.get(status, 0) + 1
        return counts


# ------------------------------------------------------------------- merging
@dataclass
class MergeSummary:
    """What one :func:`merge_stores` call folded together."""

    output: Path
    sources: List[Path] = field(default_factory=list)
    records_in: int = 0       #: records read across all sources
    records_out: int = 0      #: records written to the canonical file
    duplicates: int = 0       #: exact duplicates dropped (ignoring attempt)
    keys: int = 0             #: distinct job keys in the merged store
    conflicts: int = 0        #: keys with >1 surviving record (latest wins)
    pruned: List[Path] = field(default_factory=list)  #: shard files deleted by --prune


def _record_identity(record: Record) -> str:
    """Canonical identity of a record, ignoring the ``attempt`` counter.

    Merging renumbers attempts (each shard counted its own attempts from 1),
    so two copies of the same attempt — e.g. the canonical file from an
    earlier merge plus the shard file it was merged from — must compare
    equal despite differing ``attempt`` fields.
    """
    probe = {k: v for k, v in record.items() if k != "attempt"}
    return json.dumps(probe, sort_keys=True, separators=(",", ":"), default=str)


def shard_result_files(root: Union[str, Path]) -> List[Path]:
    """The per-shard results files inside a store directory, sorted by name."""
    return sorted(Path(root).glob(SHARD_RESULTS_GLOB))


def merge_sources(
    root: Union[str, Path], extra: Sequence[Union[str, Path]] = ()
) -> List[Path]:
    """Resolve the result files a merge of ``root`` folds together.

    The canonical ``results.jsonl`` (if present) and every shard file in the
    store directory, plus ``extra`` entries — each either a results file or
    another store directory (e.g. one copied over from a different host).
    """
    root = Path(root)
    sources: List[Path] = []
    canonical = root / RESULTS_NAME
    if canonical.exists():
        sources.append(canonical)
    sources.extend(shard_result_files(root))
    for entry in extra:
        path = Path(entry)
        if path.is_dir():
            found = []
            candidate = path / RESULTS_NAME
            if candidate.exists():
                found.append(candidate)
            found.extend(shard_result_files(path))
            if not found:
                # An explicitly-named source that contributes nothing is an
                # operator mistake (wrong directory level, typo'd rsync
                # destination), not a store with zero results — failing loud
                # beats a silently partial merge.
                raise FileNotFoundError(
                    f"merge source {path} is a directory with no "
                    f"{RESULTS_NAME} and no {SHARD_RESULTS_GLOB} shard files"
                )
            sources.extend(found)
        elif path.exists():
            sources.append(path)
        else:
            raise FileNotFoundError(f"merge source {path} does not exist")
    return sources


class MergeVerificationError(RuntimeError):
    """The written canonical store does not cover a source record.

    Raised by ``merge_stores(..., prune=True)`` *before* any shard file is
    deleted — a failed or unverifiable fold must never destroy its inputs.
    """


def merge_stores(
    root: Union[str, Path],
    extra: Sequence[Union[str, Path]] = (),
    *,
    prune: bool = False,
) -> MergeSummary:
    """Fold shard stores into the canonical ``results.jsonl`` under ``root``.

    Conflict resolution is **latest-wins per key**: records are ordered by
    ``finished_at`` (ties broken by key, then by canonical content), so the
    store's latest-record index resolves exactly as if the attempts had been
    appended to a single store in finish order.  ``attempt`` is renumbered
    per key in that order.  Exact duplicates (same record up to ``attempt``)
    are dropped, which makes the merge idempotent: re-merging the canonical
    file with the shard files it came from is a byte-identical no-op.

    ``prune=True`` deletes the per-shard ``results-*.jsonl`` files inside
    the store directory after — and only after — the written canonical file
    has been read back and **verified** to contain every record of every
    source (up to ``attempt`` renumbering).  If verification fails, a
    :class:`MergeVerificationError` is raised and nothing is deleted; if the
    merge itself fails, the exception propagates before any write or
    deletion.  Extra sources (files or stores copied in from other hosts)
    are never pruned — only this store's own shard files are.
    """
    root = Path(root)
    sources = merge_sources(root, extra)
    if not sources:
        raise FileNotFoundError(
            f"nothing to merge under {root}: no {RESULTS_NAME} and no "
            f"{SHARD_RESULTS_GLOB} shard files"
        )

    summary = MergeSummary(output=root / RESULTS_NAME, sources=list(sources))
    merged: Dict[str, Record] = {}
    for source in sources:
        for record in read_records(source):
            summary.records_in += 1
            identity = _record_identity(record)
            if identity in merged:
                summary.duplicates += 1
            else:
                merged[identity] = record

    def _finish_order(item):
        identity, record = item
        finished = record.get("finished_at")
        finished = float(finished) if isinstance(finished, (int, float)) else 0.0
        return (finished, str(record.get("key", "")), identity)

    ordered = [record for _, record in sorted(merged.items(), key=_finish_order)]
    attempts: Dict[object, int] = {}
    lines: List[str] = []
    for record in ordered:
        key = record.get("key")
        try:
            attempts[key] = attempts.get(key, 0) + 1
            record = {**record, "attempt": attempts[key]}
        except TypeError:
            pass
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":"),
                                default=str))
    summary.records_out = len(ordered)
    summary.keys = len(attempts)
    summary.conflicts = sum(1 for count in attempts.values() if count > 1)

    root.mkdir(parents=True, exist_ok=True)
    payload = "".join(line + "\n" for line in lines)
    tmp = root / f"{RESULTS_NAME}.tmp.{os.getpid()}"
    durable_replace(tmp, root / RESULTS_NAME, payload)

    if prune:
        _verify_and_prune(root, sources, summary)
    return summary


def _verify_and_prune(
    root: Path, sources: Sequence[Path], summary: MergeSummary
) -> None:
    """Delete ``root``'s shard files once the canonical fold is verified.

    Verification re-reads the canonical file *from disk* (not the in-memory
    merge state) and checks that every source record's identity — the
    record minus its shard-local ``attempt`` counter — survived the fold.
    Only then are the store's own ``results-<shard>.jsonl`` files unlinked;
    a verification failure refuses with :class:`MergeVerificationError` and
    leaves every file in place.
    """
    canonical = root / RESULTS_NAME
    merged_identities = {
        _record_identity(record) for record in read_records(canonical)
    }
    for source in sources:
        if source == canonical:
            continue
        for line_number, record in enumerate(read_records(source), start=1):
            if _record_identity(record) not in merged_identities:
                raise MergeVerificationError(
                    f"refusing to prune: record #{line_number} of {source} is "
                    f"not covered by the merged {canonical}; the fold looks "
                    "incomplete, so the shard files are kept"
                )
    # Delete only shard files that were actually merge sources — a shard
    # file that appeared after the merge enumerated its sources (a straggler
    # shard run, a late rsync) was neither folded nor verified, so it must
    # survive for the next merge.
    shard_files = set(shard_result_files(root)) & set(sources)
    for source in sorted(shard_files):
        try:
            source.unlink()
        except OSError as exc:
            raise MergeVerificationError(
                f"verified fold but failed to delete shard file {source}: {exc}"
            ) from exc
        summary.pruned.append(source)
    _fsync_directory(root)


def measured_job_costs(
    store: Union["ResultStore", str, Path],
    *,
    metric: str = "cpu_seconds",
) -> Dict[str, float]:
    """Per-job-key cost table from a store's latest records.

    The returned ``{job key: cost}`` mapping feeds cost-balanced sharding
    (``CampaignSpec.shard(..., costs=...)``): run the grid
    once (or let a partial sweep finish), then shard the next sweep by the
    measured ``cpu_seconds``.  Records without a usable metric (errors
    recorded before the job ran, foreign records) are skipped — the shard
    falls back to the mean cost for those jobs.
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    costs: Dict[str, float] = {}
    for key, record in store.load_index().items():
        value = record.get(metric)
        if isinstance(value, (int, float)) and value >= 0:
            costs[key] = float(value)
    return costs
