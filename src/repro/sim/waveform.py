"""Waveform capture for sequential simulations.

Tables I and II of the paper are simulation waveforms (inputs, outputs under
the correct key and outputs under a wrong key, sampled per clock edge).  The
:class:`Waveform` container holds such traces; :func:`render_table` formats
the rows the table drivers build from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence


@dataclass(frozen=True)
class WaveformRow:
    """One sampled clock cycle: time, input values and observed signal values."""

    time: int
    inputs: Dict[str, int]
    signals: Dict[str, int]


@dataclass
class Waveform:
    """A sequence of sampled cycles for a named set of signals."""

    name: str
    rows: List[WaveformRow] = field(default_factory=list)

    def append(self, time: int, inputs: Mapping[str, int], signals: Mapping[str, int]) -> None:
        """Record one cycle."""
        self.rows.append(WaveformRow(time=time, inputs=dict(inputs), signals=dict(signals)))

    def signal(self, net: str) -> List[int]:
        """The per-cycle values of one signal."""
        return [row.signals[net] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------ #
    # comparisons / packing
    # ------------------------------------------------------------------ #
    def matches(self, other: "Waveform", signals: Optional[Sequence[str]] = None) -> bool:
        """True if both waveforms agree cycle-by-cycle on ``signals``."""
        if len(self) != len(other):
            return False
        for row_a, row_b in zip(self.rows, other.rows):
            nets = signals if signals is not None else row_a.signals.keys()
            for net in nets:
                if row_a.signals.get(net) != row_b.signals.get(net):
                    return False
        return True

    @staticmethod
    def pack(bits: Mapping[str, int], order: Sequence[str]) -> int:
        """Pack named bits into an integer, ``order[0]`` being the MSB."""
        value = 0
        for net in order:
            value = (value << 1) | (int(bits.get(net, 0)) & 1)
        return value


def render_table(rows: List[Dict[str, str]]) -> str:
    """Format a list of dict rows as an aligned ASCII table."""
    if not rows:
        return "(empty)"
    columns = list(rows[0].keys())
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    header = " | ".join(c.ljust(widths[c]) for c in columns)
    separator = "-+-".join("-" * widths[c] for c in columns)
    body = [
        " | ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns) for row in rows
    ]
    return "\n".join([header, separator, *body])
