"""Standard-cell synthesis model used for overhead analysis.

The paper synthesises locked and unlocked circuits with Cadence Genus on a
45 nm library and compares power, area, cell count and I/O count (Figure 4).
Without access to Genus, this package provides a deterministic generic
45 nm-style cell model (:mod:`repro.synthesis.library`), a direct technology
mapping (:mod:`repro.synthesis.mapping`) and the overhead calculator
(:mod:`repro.synthesis.overhead`).  Absolute numbers differ from Genus; the
relative overhead trends are what the reproduction targets.
"""

from repro.synthesis.library import Cell, CellLibrary, generic_45nm_library
from repro.synthesis.mapping import technology_map, MappedCircuit, MappedCell
from repro.synthesis.overhead import (
    OverheadReport,
    analyze_circuit,
    compare_overhead,
    CircuitCost,
)

__all__ = [
    "Cell",
    "CellLibrary",
    "generic_45nm_library",
    "technology_map",
    "MappedCircuit",
    "MappedCell",
    "OverheadReport",
    "CircuitCost",
    "analyze_circuit",
    "compare_overhead",
]
