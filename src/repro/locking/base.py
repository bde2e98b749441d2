"""Shared containers for locking transforms.

Every locking scheme in this package returns a :class:`LockedCircuit`,
bundling the locked netlist with the secret needed to operate it:

* single-key schemes (RLL, SARLock, …) carry a schedule of length 1;
* the multi-key time-based Cute-Lock schemes carry a schedule of length
  ``k`` — the key value that must be applied while the internal counter
  equals ``t`` is ``schedule[t]``.

The terminology follows Section III-A of the paper: ``k`` is the number of
key values, ``ki`` the number of bits per key value and ``c`` the counter
period.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

from repro.netlist.circuit import Circuit


class LockingError(Exception):
    """Raised when a locking transform cannot be applied."""


@dataclass(frozen=True)
class KeySchedule:
    """A time-based key schedule.

    Attributes
    ----------
    width:
        ki — number of bits in each key value.
    values:
        The k key values; ``values[t]`` must be presented while the counter
        equals ``t``.  A single-entry schedule is a conventional static key.
    """

    width: int
    values: tuple

    def __post_init__(self) -> None:
        if self.width < 1:
            raise LockingError("key width must be at least 1")
        if not self.values:
            raise LockingError("key schedule must contain at least one value")
        for value in self.values:
            if not 0 <= value < (1 << self.width):
                raise LockingError(f"key value {value} out of range for {self.width} bits")

    @property
    def num_keys(self) -> int:
        """k — number of key values."""
        return len(self.values)

    def value_at(self, cycle: int) -> int:
        """Key value scheduled for clock cycle ``cycle`` (counter wraps)."""
        return self.values[cycle % len(self.values)]

    def bits_at(self, cycle: int, key_inputs: Sequence[str]) -> Dict[str, int]:
        """Per-pin key bits for ``cycle`` (``key_inputs`` MSB first)."""
        value = self.value_at(cycle)
        width = len(key_inputs)
        return {
            net: (value >> (width - 1 - index)) & 1
            for index, net in enumerate(key_inputs)
        }

    def is_static(self) -> bool:
        """True if every scheduled value is identical (single-key behaviour)."""
        return len(set(self.values)) == 1

    def collapsed(self) -> "KeySchedule":
        """Schedule with every entry replaced by the first value.

        This is the "reduce to a single-key solution" experiment of the
        paper's validation section (Section IV-A): with all keys equal the
        scheme degenerates to a conventional lock and the SAT attacks are
        expected to succeed.
        """
        return KeySchedule(width=self.width, values=tuple([self.values[0]] * len(self.values)))

    @staticmethod
    def random(num_keys: int, width: int, *, seed: int = 0, distinct: bool = True) -> "KeySchedule":
        """A seeded random schedule of ``num_keys`` values of ``width`` bits.

        With ``distinct=True`` (default) at least two scheduled values differ
        whenever the key space allows it, so the schedule cannot silently
        degenerate to a static key.
        """
        rng = random.Random(seed)
        values = [rng.randrange(1 << width) for _ in range(num_keys)]
        if distinct and num_keys > 1 and (1 << width) > 1 and len(set(values)) == 1:
            values[-1] ^= 1
        return KeySchedule(width=width, values=tuple(values))


@dataclass
class LockedCircuit:
    """A locked netlist together with its secret and bookkeeping metadata.

    Attributes
    ----------
    circuit:
        The locked netlist (key inputs are primary inputs flagged in
        ``circuit.key_inputs``).
    original:
        The pre-locking netlist (the oracle the attacks may query).
    schedule:
        The secret :class:`KeySchedule`.
    key_inputs:
        Ordered key input nets, MSB first (matches ``schedule`` packing).
    scheme:
        Name of the locking scheme that produced this object.
    counter_nets:
        Q nets of the inserted counter flip-flops (empty for combinational
        schemes).
    locked_ffs:
        Q nets of the flip-flops whose next-state logic was locked.
    metadata:
        Free-form scheme-specific details (donor FFs, comparator nets, …).
    """

    circuit: Circuit
    original: Circuit
    schedule: KeySchedule
    key_inputs: List[str]
    scheme: str
    counter_nets: List[str] = field(default_factory=list)
    locked_ffs: List[str] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def num_keys(self) -> int:
        """k — number of scheduled key values."""
        return self.schedule.num_keys

    @property
    def key_width(self) -> int:
        """ki — bits per key value."""
        return self.schedule.width

    def correct_key_bits(self, cycle: int = 0) -> Dict[str, int]:
        """Key-input assignment scheduled for ``cycle``."""
        return self.schedule.bits_at(cycle, self.key_inputs)

    def wrong_schedule(self, *, seed: int = 1) -> KeySchedule:
        """A schedule guaranteed to differ from the secret in ≥1 position."""
        rng = random.Random(seed)
        values = list(self.schedule.values)
        position = rng.randrange(len(values))
        flip = 1 << rng.randrange(self.schedule.width)
        values[position] ^= flip
        return KeySchedule(width=self.schedule.width, values=tuple(values))

    def describe(self) -> str:
        """One-line human-readable summary (used by example scripts)."""
        return (
            f"{self.scheme}: k={self.num_keys}, ki={self.key_width}, "
            f"key pins={len(self.key_inputs)}, locked FFs={len(self.locked_ffs)}, "
            f"counter bits={len(self.counter_nets)}, "
            f"gates {len(self.original.gates)} -> {len(self.circuit.gates)}"
        )


def pack_key_bits(bits: Mapping[str, int], key_inputs: Sequence[str]) -> int:
    """Pack per-pin key bits into an integer (``key_inputs`` MSB first)."""
    value = 0
    for net in key_inputs:
        value = (value << 1) | (int(bits.get(net, 0)) & 1)
    return value


def unpack_key_value(value: int, key_inputs: Sequence[str]) -> Dict[str, int]:
    """Inverse of :func:`pack_key_bits`."""
    width = len(key_inputs)
    return {
        net: (value >> (width - 1 - index)) & 1 for index, net in enumerate(key_inputs)
    }
