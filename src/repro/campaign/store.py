"""Append-only JSONL result store with an in-memory latest-wins index.

Store layout (one directory per campaign)::

    <store>/
      manifest.json   # the CampaignSpec (name, metadata, ordered jobs)
      results.jsonl   # one JSON record per finished attempt

``results.jsonl`` is strictly append-only: a re-run of a job (``--retry-
failed``) appends a new record rather than rewriting history, and the index
keeps the **latest** record per job key.  A record whose ``status`` is
``"completed"`` carries the job's JSON payload; ``"error"`` and ``"timeout"``
records carry the failure context instead.  Appends are flushed + fsynced per
record so a killed run (crash, SIGKILL, CI timeout) loses at most the job in
flight — the foundation of ``campaign resume``.  The torn last line such a
kill can leave is skipped on load, and the next append ends it with a
newline first, so the new record never fuses with the fragment.

``ResultStore(None)`` is an ephemeral in-memory store with the same API,
used when a driver just wants the executor semantics without persistence.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.campaign.spec import CampaignSpec, _jsonable
from repro.jsonutil import read_jsonl_objects

MANIFEST_NAME = "manifest.json"
RESULTS_NAME = "results.jsonl"

#: Record statuses written by the executor.
STATUS_COMPLETED = "completed"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"

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
    """JSONL-backed (or in-memory) record store for one campaign."""

    def __init__(self, root: Union[str, Path, None]) -> None:
        self.root: Optional[Path] = Path(root) if root is not None else None
        self._records: List[Record] = []
        self._index: Dict[str, Record] = {}
        self._attempts: Dict[object, int] = {}
        #: The results file does not end in a newline (a killed run's torn
        #: last line); the next append ends that line before its record.
        self._torn_tail = False
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
        return self.root / RESULTS_NAME

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
        # A resume or a rerun of the same grid republishes the same
        # manifest; skip the write when the published bytes already match
        # rather than churning the file.
        if self.manifest_path.exists():
            try:
                if self.manifest_path.read_text() == payload:
                    return
            except OSError:
                pass
        # Write-then-rename (with fsyncs) so a crash mid-write can neither
        # truncate the manifest nor publish an empty one.  The tmp name is
        # per-process so two runs against one store cannot tear each other's
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
        with self.results_path.open("rb") as handle:
            end = handle.seek(0, os.SEEK_END)
            if end:
                handle.seek(end - 1)
                self._torn_tail = handle.read(1) != b"\n"

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
        # O(1) per append: the per-key counter is maintained by _ingest
        # instead of rescanning every stored record (which made a sweep of n
        # jobs O(n^2) in store appends).
        record.setdefault("attempt", self._next_attempt(record.get("key")))
        record = _jsonable(record)  # type: ignore[assignment]
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            line = json.dumps(record, sort_keys=False) + "\n"
            if self._torn_tail:
                # End the torn line first: on reload it is then a corrupt
                # line with a warning, and this record stays its own line.
                line = "\n" + line
            with self.results_path.open("a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
            self._torn_tail = False
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
