"""Direct technology mapping of a netlist onto the cell library.

The mapper is intentionally simple (this is an overhead *model*, not a
competitive synthesis flow):

* 2–4 input gates map to the matching library cell;
* wider gates are decomposed into balanced trees of 4-input cells;
* multi-input XOR/XNOR decompose into 2-input XOR chains;
* MUX, BUF, INV, constants and DFFs map one-to-one.

Decomposition is performed on the *cost* side only — the logical netlist is
never modified, so the mapping cannot change functional behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.synthesis.library import Cell, CellLibrary, generic_45nm_library

_PREFIX_BY_TYPE = {
    GateType.AND: "AND",
    GateType.NAND: "NAND",
    GateType.OR: "OR",
    GateType.NOR: "NOR",
}


@dataclass(frozen=True)
class MappedCell:
    """One library cell instance attributed to a source net."""

    source_net: str
    cell: Cell


@dataclass
class MappedCircuit:
    """The result of technology mapping: a flat list of cell instances."""

    circuit_name: str
    library_name: str
    cells: List[MappedCell] = field(default_factory=list)

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    @property
    def total_area(self) -> float:
        return math.fsum(mapped.cell.area for mapped in self.cells)

    @property
    def total_leakage_nw(self) -> float:
        return math.fsum(mapped.cell.leakage_nw for mapped in self.cells)

    def histogram(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for mapped in self.cells:
            counts[mapped.cell.name] = counts.get(mapped.cell.name, 0) + 1
        return counts

    def cells_for(self, net: str) -> List[MappedCell]:
        return [mapped for mapped in self.cells if mapped.source_net == net]


def _tree_decompose(count: int, max_arity: int) -> List[int]:
    """Arities of the tree of ``max_arity``-input cells covering ``count`` leaves.

    Returns a list with one entry per cell in the tree (its fan-in).
    """
    arities: List[int] = []
    level = count
    while level > 1:
        cells_this_level = (level + max_arity - 1) // max_arity
        remaining = level
        for index in range(cells_this_level):
            take = min(max_arity, remaining - (cells_this_level - index - 1))
            take = max(2, take) if remaining > 1 else 1
            arities.append(take)
            remaining -= take
        level = cells_this_level
    return arities


def technology_map(circuit: Circuit, library: CellLibrary | None = None) -> MappedCircuit:
    """Map ``circuit`` onto ``library`` (default: the generic 45 nm model)."""
    library = library or generic_45nm_library()
    mapped = MappedCircuit(circuit_name=circuit.name, library_name=library.name)

    for out, gate in circuit.gates.items():
        fanin = len(gate.inputs)
        gtype = gate.gtype
        if gtype == GateType.BUF:
            mapped.cells.append(MappedCell(out, library.cell("BUF_X1")))
        elif gtype == GateType.NOT:
            mapped.cells.append(MappedCell(out, library.cell("INV_X1")))
        elif gtype == GateType.CONST0:
            mapped.cells.append(MappedCell(out, library.cell("TIE0_X1")))
        elif gtype == GateType.CONST1:
            mapped.cells.append(MappedCell(out, library.cell("TIE1_X1")))
        elif gtype == GateType.MUX:
            mapped.cells.append(MappedCell(out, library.cell("MUX2_X1")))
        elif gtype in (GateType.XOR, GateType.XNOR):
            cell_name = "XOR2_X1" if gtype == GateType.XOR else "XNOR2_X1"
            # n-input XOR decomposes into (n-1) two-input stages.
            for _ in range(max(1, fanin - 1)):
                mapped.cells.append(MappedCell(out, library.cell(cell_name)))
        else:
            prefix = _PREFIX_BY_TYPE[gtype]
            if fanin <= 4:
                mapped.cells.append(MappedCell(out, library.best_cell(prefix, max(2, fanin))))
            else:
                # Wide gate: tree of 4-input AND/OR cells with the inverting
                # variant (if any) only at the root.
                base_prefix = {"NAND": "AND", "NOR": "OR"}.get(prefix, prefix)
                arities = _tree_decompose(fanin, 4)
                for index, arity in enumerate(arities):
                    last = index == len(arities) - 1
                    use_prefix = prefix if (last and prefix in ("NAND", "NOR")) else base_prefix
                    mapped.cells.append(
                        MappedCell(out, library.best_cell(use_prefix, max(2, arity)))
                    )

    for q in circuit.dffs:
        mapped.cells.append(MappedCell(q, library.cell("DFF_X1")))
    return mapped
