"""Overhead accounting: power, area, cell count and I/O count.

This is the reproduction's stand-in for the Cadence Genus reports behind
Figure 4.  Power is modelled as leakage (from the cell library) plus dynamic
switching power estimated from per-net toggle rates gathered by simulating
the circuit on random stimulus at a nominal clock frequency.  The stimulus
is drawn in bulk (:func:`~repro.engine.packed.random_bits`: the same bits
as one ``randint`` draw of 0 or 1 per input and cycle) and sliced into one
cycle word per input for :func:`~repro.engine.equivalence.packed_toggle_counts`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.engine.packed import random_bits, stimulus_words
from repro.locking.base import LockedCircuit
from repro.netlist.circuit import Circuit
from repro.synthesis.library import CellLibrary, generic_45nm_library
from repro.synthesis.mapping import MappedCircuit, technology_map

#: Nominal clock frequency (Hz) used to convert switching energy to power.
DEFAULT_CLOCK_HZ = 100e6


@dataclass(frozen=True)
class CircuitCost:
    """Absolute cost figures for one circuit (one bar of Figure 4)."""

    name: str
    power_uw: float
    area_um2: float
    cell_count: int
    io_count: int
    leakage_uw: float
    dynamic_uw: float
    num_dffs: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "power_uw": self.power_uw,
            "area_um2": self.area_um2,
            "cell_count": self.cell_count,
            "io_count": self.io_count,
        }

    def to_dict(self) -> Dict[str, object]:
        """Full JSON-serialisable form (campaign workers ship costs as JSON)."""
        return {
            "name": self.name,
            "power_uw": self.power_uw,
            "area_um2": self.area_um2,
            "cell_count": self.cell_count,
            "io_count": self.io_count,
            "leakage_uw": self.leakage_uw,
            "dynamic_uw": self.dynamic_uw,
            "num_dffs": self.num_dffs,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CircuitCost":
        return cls(
            name=str(data["name"]),
            power_uw=float(data["power_uw"]),  # type: ignore[arg-type]
            area_um2=float(data["area_um2"]),  # type: ignore[arg-type]
            cell_count=int(data["cell_count"]),  # type: ignore[arg-type]
            io_count=int(data["io_count"]),  # type: ignore[arg-type]
            leakage_uw=float(data.get("leakage_uw", 0.0)),  # type: ignore[arg-type]
            dynamic_uw=float(data.get("dynamic_uw", 0.0)),  # type: ignore[arg-type]
            num_dffs=int(data.get("num_dffs", 0)),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class OverheadReport:
    """Relative overhead of a locked circuit versus its original."""

    original: CircuitCost
    locked: CircuitCost
    scheme: str

    @staticmethod
    def _relative(before: float, after: float) -> float:
        if before == 0:
            return 0.0 if after == 0 else float("inf")
        return (after - before) / before * 100.0

    @property
    def power_overhead_pct(self) -> float:
        return self._relative(self.original.power_uw, self.locked.power_uw)

    @property
    def area_overhead_pct(self) -> float:
        return self._relative(self.original.area_um2, self.locked.area_um2)

    @property
    def cell_overhead_pct(self) -> float:
        return self._relative(self.original.cell_count, self.locked.cell_count)

    @property
    def io_overhead_pct(self) -> float:
        return self._relative(self.original.io_count, self.locked.io_count)

    def as_dict(self) -> Dict[str, float]:
        return {
            "power_pct": self.power_overhead_pct,
            "area_pct": self.area_overhead_pct,
            "cells_pct": self.cell_overhead_pct,
            "ios_pct": self.io_overhead_pct,
        }


def analyze_circuit(
    circuit: Circuit,
    *,
    library: Optional[CellLibrary] = None,
    activity_vectors: int = 64,
    clock_hz: float = DEFAULT_CLOCK_HZ,
    seed: int = 0,
    key_bits: Optional[Mapping[str, int]] = None,
) -> CircuitCost:
    """Compute the absolute cost of ``circuit``.

    ``key_bits`` optionally pins the key inputs during the activity
    simulation (a locked chip in the field operates with its correct key
    applied, which is the fair setting for dynamic-power comparison).
    ``activity_vectors`` must be at least 2: toggles are counted between
    consecutive vectors, so fewer would report no dynamic power.
    """
    if activity_vectors < 2:
        raise ValueError(f"activity_vectors must be >= 2, got {activity_vectors}")
    library = library or generic_45nm_library()
    mapped = technology_map(circuit, library)

    from repro.engine.equivalence import packed_toggle_counts

    # Cycle t draws every input in order, key inputs included (a pinned key
    # overrides its draws): input i's cycle word takes bits i, i + n, ...
    cycles = activity_vectors
    bits = random_bits(random.Random(seed), cycles * len(circuit.inputs))
    words = stimulus_words(bits, circuit.inputs)
    mask = (1 << cycles) - 1
    for net, value in (key_bits or {}).items():
        words[net] = mask if int(value) & 1 else 0
    toggles = packed_toggle_counts(circuit, words, cycles)

    leakage_nw = mapped.total_leakage_nw
    dynamic_uw = 0.0
    for cell_instance in mapped.cells:
        toggle_rate = toggles.get(cell_instance.source_net, 0) / cycles
        # energy (fJ) * rate * f (Hz) -> W ; 1 fJ * 1e8 Hz = 1e-7 W = 0.1 µW
        dynamic_uw += cell_instance.cell.switch_energy_fj * 1e-15 * toggle_rate * clock_hz * 1e6

    leakage_uw = leakage_nw / 1000.0
    return CircuitCost(
        name=circuit.name,
        power_uw=leakage_uw + dynamic_uw,
        area_um2=mapped.total_area,
        cell_count=mapped.cell_count,
        io_count=len(circuit.inputs) + len(circuit.outputs),
        leakage_uw=leakage_uw,
        dynamic_uw=dynamic_uw,
        num_dffs=len(circuit.dffs),
    )


def compare_overhead(
    locked: LockedCircuit,
    *,
    library: Optional[CellLibrary] = None,
    activity_vectors: int = 64,
    clock_hz: float = DEFAULT_CLOCK_HZ,
    seed: int = 0,
) -> OverheadReport:
    """Cost the original and locked circuits and return their relative overhead."""
    library = library or generic_45nm_library()
    original_cost = analyze_circuit(
        locked.original, library=library, activity_vectors=activity_vectors,
        clock_hz=clock_hz, seed=seed,
    )
    locked_cost = analyze_circuit(
        locked.circuit, library=library, activity_vectors=activity_vectors,
        clock_hz=clock_hz, seed=seed, key_bits=locked.correct_key_bits(0),
    )
    return OverheadReport(original=original_cost, locked=locked_cost, scheme=locked.scheme)
