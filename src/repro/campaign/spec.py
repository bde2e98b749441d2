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
from typing import Dict, List, Mapping

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

    def groups(self) -> List[str]:
        """Group names in first-appearance order."""
        ordered: List[str] = []
        for job in self.jobs:
            if job.group not in ordered:
                ordered.append(job.group)
        return ordered

    def jobs_in_group(self, group: str) -> List[JobSpec]:
        return [job for job in self.jobs if job.group == group]

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
