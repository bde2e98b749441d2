"""Attack outcome containers.

The paper's attack tables colour-code five outcomes; :class:`AttackOutcome`
mirrors them directly so the experiment drivers can print the same
classification:

* ``CORRECT``   — the attack recovered a key that unlocks the circuit (green);
* ``WRONG_KEY`` — the attack reported a key but it fails verification (red);
* ``CNS``       — "condition not solvable": the attack proved no key in its
  model (a single static key) is consistent with the oracle (light red);
* ``FAIL``      — the attack terminated without producing any key (dark red);
* ``TIMEOUT``   — the attack hit its resource limit (yellow / "N/A").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.jsonutil import jsonable

#: Per-attack wall-clock limit, in seconds, of the paper's attack grids
#: (Tables III and IV).  ``table3_jobs``, ``table4_jobs``,
#: ``build_campaign``, ``run_all`` and the ``--time-limit`` of ``repro
#: reproduce`` and ``repro campaign run`` all default to it.
GRID_TIME_LIMIT = 20.0


class AttackOutcome(str, enum.Enum):
    """Classification of an attack run, mirroring the paper's colour legend."""

    CORRECT = "correct"
    WRONG_KEY = "wrong-key"
    CNS = "cns"
    FAIL = "fail"
    TIMEOUT = "timeout"

    @property
    def is_break(self) -> bool:
        """True if the defense was broken (attacker obtained a working key)."""
        return self is AttackOutcome.CORRECT

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class AttackResult:
    """Outcome of one attack run.

    Attributes
    ----------
    attack:
        Attack name (``"sat"``, ``"bmc"``, ``"kc2"``, ``"rane"``, …).
    outcome:
        The :class:`AttackOutcome` classification.
    key:
        The recovered static key as a per-pin bit assignment (if any).
    iterations:
        Number of DIP / DIS refinement iterations executed.
    runtime_seconds:
        Wall-clock time spent inside the attack.
    details:
        Attack-specific extras (unroll depth, solver statistics, …).
    """

    attack: str
    outcome: AttackOutcome
    key: Optional[Dict[str, int]] = None
    iterations: int = 0
    runtime_seconds: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def broke_defense(self) -> bool:
        return self.outcome.is_break

    def summary(self) -> str:
        """Compact single-line summary used by the experiment tables."""
        key_repr = "-"
        if self.key is not None:
            key_repr = "".join(str(self.key[net]) for net in sorted(self.key))
        return (
            f"{self.attack}: {self.outcome.value} "
            f"(iters={self.iterations}, t={self.runtime_seconds:.3f}s, key={key_repr})"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (campaign workers ship results as JSON).

        ``details`` values that are not JSON types (solver objects,
        counterexample containers, …) are coerced to strings rather than
        dropped, so the round trip never raises and never loses context.
        """
        return {
            "attack": self.attack,
            "outcome": self.outcome.value,
            "key": dict(self.key) if self.key is not None else None,
            "iterations": self.iterations,
            "runtime_seconds": self.runtime_seconds,
            "details": jsonable(self.details),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AttackResult":
        key = data.get("key")
        return cls(
            attack=str(data["attack"]),
            outcome=AttackOutcome(str(data["outcome"])),
            key={str(net): int(bit) for net, bit in key.items()} if key else None,  # type: ignore[union-attr]
            iterations=int(data.get("iterations", 0)),  # type: ignore[arg-type]
            runtime_seconds=float(data.get("runtime_seconds", 0.0)),  # type: ignore[arg-type]
            details=dict(data.get("details", {})),  # type: ignore[arg-type]
        )


def format_runtime(seconds: float) -> str:
    """Render a runtime the way the paper's tables do (``XmY.ZZZs``)."""
    minutes = int(seconds // 60)
    remainder = seconds - minutes * 60
    if minutes >= 60:
        hours = minutes // 60
        minutes = minutes % 60
        return f"{hours}h{minutes}m{remainder:.0f}s"
    return f"{minutes}m{remainder:.3f}s"
