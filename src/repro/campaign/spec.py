"""Declarative experiment-campaign specifications.

A *campaign* is a grid of independent jobs — one per (scheme, scheme-params,
benchmark, attack, attack-params, seed) cell of the paper's evaluation — that
the :mod:`repro.campaign.executor` can run in any order, in parallel, and
across process restarts.  Two properties make that safe:

* every job is **fully described by its parameters**: the worker re-derives
  the benchmark, the locked circuit and every RNG seed from ``params`` alone,
  so a cell computes the same payload no matter which process runs it;
* every job has a **stable content-hashed key** (:func:`job_key`) derived
  from its kind and canonicalised parameters, so a result store can recognise
  "this exact cell already ran" across sessions — the basis of resume.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from repro.jsonutil import jsonable as _jsonable

#: Length of the hex job key.  16 hex chars = 64 bits of SHA-256: collisions
#: are astronomically unlikely for any realistic grid while keeping the keys
#: readable in logs and JSONL records.
KEY_HEX_CHARS = 16


def canonical_params(params: Mapping[str, object]) -> str:
    """Render ``params`` as canonical JSON (sorted keys, no whitespace).

    The canonical form — not the Python object — is what gets hashed, so
    semantically equal parameter sets (dict ordering, tuples vs lists after a
    JSON round trip) always map to the same job key.
    """
    return json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)


def job_key(kind: str, params: Mapping[str, object]) -> str:
    """Stable content hash identifying one job across sessions."""
    digest = hashlib.sha256(
        f"{kind}\n{canonical_params(params)}".encode("utf-8")
    ).hexdigest()
    return digest[:KEY_HEX_CHARS]


def shard_label(index: int, count: int) -> str:
    """Human-readable shard tag (1-based) used in store file names.

    ``shard_label(1, 4) == "2of4"`` — the tag a ``--shard 2/4`` run writes
    its ``results-<tag>.jsonl`` under.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(f"shard index must be in [0, {count}), got {index}")
    return f"{index + 1}of{count}"


@dataclass(frozen=True)
class JobSpec:
    """One cell of a campaign grid.

    Attributes
    ----------
    kind:
        Name of the worker function in the :mod:`repro.campaign.jobs`
        registry (``"table3_cell"``, ``"figure4_cell"``, ``"sleep"``, …).
    params:
        JSON-serialisable parameters that fully determine the cell's work,
        including every seed the worker must re-seed its RNGs from.
    group:
        Aggregation group (``"table3"``, ``"figure4"``, …) — which table the
        cell's payload is folded back into.
    key:
        Content hash of ``(kind, params)``; computed automatically.
    """

    kind: str
    params: Dict[str, object]
    group: str = ""
    key: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        # Normalise params through a JSON round trip so the in-memory spec,
        # the manifest on disk, and a spec rebuilt from the manifest all hash
        # identically (tuples become lists, keys become strings, ...).
        object.__setattr__(self, "params", _jsonable(dict(self.params)))
        object.__setattr__(self, "key", job_key(self.kind, self.params))

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "kind": self.kind,
            "group": self.group,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobSpec":
        job = cls(
            kind=str(data["kind"]),
            params=dict(data.get("params", {})),  # type: ignore[arg-type]
            group=str(data.get("group", "")),
        )
        recorded = data.get("key")
        if recorded and recorded != job.key:
            raise ValueError(
                f"manifest job key {recorded!r} does not match the recomputed "
                f"key {job.key!r} for kind={job.kind!r}; the manifest was "
                "edited or produced by an incompatible version"
            )
        return job


@dataclass
class CampaignSpec:
    """A named, ordered collection of jobs plus free-form metadata.

    Job order is meaningful: aggregation emits table rows in spec order, so
    parallel execution (which completes jobs in arbitrary order) still
    reproduces the serial tables byte for byte.
    """

    name: str
    jobs: List[JobSpec] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: Dict[str, JobSpec] = {}
        for job in self.jobs:
            clash = seen.get(job.key)
            if clash is not None:
                raise ValueError(
                    f"duplicate job in campaign {self.name!r}: "
                    f"{job.kind}/{job.params} hashes to the same key "
                    f"({job.key}) as {clash.kind}/{clash.params}"
                )
            seen[job.key] = job

    def __len__(self) -> int:
        return len(self.jobs)

    def job_for(self, key: str) -> Optional[JobSpec]:
        for job in self.jobs:
            if job.key == key:
                return job
        return None

    def groups(self) -> List[str]:
        """Group names in first-appearance order."""
        ordered: List[str] = []
        for job in self.jobs:
            if job.group not in ordered:
                ordered.append(job.group)
        return ordered

    def jobs_in_group(self, group: str) -> List[JobSpec]:
        return [job for job in self.jobs if job.group == group]

    def shard(
        self,
        index: int,
        count: int,
        *,
        costs: Optional[Mapping[str, float]] = None,
    ) -> "CampaignSpec":
        """Deterministic ``1``-of-``count`` partition of this campaign.

        The partition is a pure function of the spec and ``costs``, so every
        host that builds the same spec (and passes the same cost table)
        computes the identical partition:

        * with ``costs`` — measured per-job costs keyed by job key, typically
          the ``cpu_seconds`` of a previous sweep of the same grid (see
          :func:`repro.campaign.store.measured_job_costs`) — a greedy LPT
          (longest-processing-time-first) partition: jobs are assigned,
          most expensive first, to the currently lightest shard (ties:
          lowest shard index), so shards finish together even when a few
          cells dominate the grid.  Jobs with no measured cost get the mean
          of the known costs.
        * without costs, or when no cost matches a job of the spec —
          round-robin over **spec order** (job ``i`` lands in shard
          ``i % count``).  Striping (rather than contiguous blocks) spreads
          each table's expensive benchmarks across shards, which roughly
          balances wall-clock without any cost model.

        The shard keeps the campaign ``name`` (it is the *same* campaign —
        the manifest always describes the full grid), preserves spec order
        within the shard (aggregation depends on it) and records its slice
        and the partition it used in ``metadata["shard"]`` so status/report
        output can label it.
        """
        label = shard_label(index, count)  # validates index/count
        jobs = self._cost_shard_jobs(index, count, costs)
        strategy = "cost"
        if jobs is None:
            jobs = list(self.jobs[index::count])
            strategy = "round-robin"
        return CampaignSpec(
            name=self.name,
            jobs=jobs,
            metadata={
                **self.metadata,
                "shard": {"index": index, "count": count, "label": label,
                          "strategy": strategy},
            },
        )

    def _cost_shard_jobs(
        self, index: int, count: int, costs: Optional[Mapping[str, float]]
    ) -> Optional[List[JobSpec]]:
        """Greedy-LPT slice of the spec, or None when no costs overlap."""
        spec_keys = {job.key for job in self.jobs}
        known = {
            key: float(value)
            for key, value in (costs or {}).items()
            if key in spec_keys
        }
        if not known:
            return None
        mean_cost = sum(known.values()) / len(known)
        weighted = [
            (known.get(job.key, mean_cost), position, job)
            for position, job in enumerate(self.jobs)
        ]
        # Most expensive first; spec position breaks ties deterministically.
        weighted.sort(key=lambda item: (-item[0], item[1]))
        loads = [0.0] * count
        buckets: List[List[int]] = [[] for _ in range(count)]
        for cost, position, _job in weighted:
            target = min(range(count), key=lambda shard: (loads[shard], shard))
            loads[target] += cost
            buckets[target].append(position)
        return [self.jobs[position] for position in sorted(buckets[index])]

    def extend(self, jobs: Iterable[JobSpec]) -> None:
        for job in jobs:
            self.jobs.append(job)
        self.__post_init__()

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "metadata": _jsonable(self.metadata),
            "jobs": [job.to_dict() for job in self.jobs],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignSpec":
        return cls(
            name=str(data.get("name", "campaign")),
            jobs=[JobSpec.from_dict(job) for job in data.get("jobs", [])],  # type: ignore[union-attr]
            metadata=dict(data.get("metadata", {})),  # type: ignore[arg-type]
        )
