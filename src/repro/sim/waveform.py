"""Waveform capture for sequential simulations.

Tables I and II of the paper are simulation waveforms (inputs, outputs under
the correct key and outputs under a wrong key, sampled per clock edge).  The
:class:`Waveform` container holds such traces and renders them as the same
kind of table.
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

    def first_divergence(self, other: "Waveform", signals: Optional[Sequence[str]] = None) -> Optional[int]:
        """Index of the first cycle where the two waveforms disagree, else None."""
        for idx, (row_a, row_b) in enumerate(zip(self.rows, other.rows)):
            nets = signals if signals is not None else row_a.signals.keys()
            for net in nets:
                if row_a.signals.get(net) != row_b.signals.get(net):
                    return idx
        return None

    @staticmethod
    def pack(bits: Mapping[str, int], order: Sequence[str]) -> int:
        """Pack named bits into an integer, ``order[0]`` being the MSB."""
        value = 0
        for net in order:
            value = (value << 1) | (int(bits.get(net, 0)) & 1)
        return value

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    def to_table(
        self,
        input_order: Sequence[str],
        signal_order: Sequence[str],
        *,
        hex_groups: Optional[Mapping[str, Sequence[str]]] = None,
        period: int = 20,
    ) -> List[Dict[str, str]]:
        """Render the waveform as rows of formatted strings.

        ``hex_groups`` maps a column label to the list of nets (MSB first)
        whose packed value should be shown in hexadecimal — this mimics the
        bus-style columns of Table I (``x[7:0]``, ``y[38:0]``).  Remaining
        nets are shown individually as single bits.
        """
        hex_groups = hex_groups or {}
        grouped = {net for nets in hex_groups.values() for net in nets}
        table: List[Dict[str, str]] = []
        for row in self.rows:
            rendered: Dict[str, str] = {"Time (ns)": str(row.time * period)}
            for label, nets in hex_groups.items():
                source = row.inputs if all(n in row.inputs for n in nets) else row.signals
                rendered[label] = format(self.pack(source, nets), "x")
            for net in input_order:
                if net not in grouped:
                    rendered[net] = str(row.inputs.get(net, "x"))
            for net in signal_order:
                if net not in grouped:
                    rendered[net] = str(row.signals.get(net, "x"))
            table.append(rendered)
        return table


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
