"""Generic 45 nm-style standard-cell library model.

Cell areas follow the familiar NAND2-equivalent proportions of open 45 nm
libraries (a NAND2 is ≈ 0.8 µm², a DFF ≈ 4.5 µm²); leakage and switching
energy are likewise representative round numbers.  The absolute values do not
matter for the reproduction — only that every circuit (original, Cute-Lock,
DK-Lock) is costed with the *same* model so the relative overheads of
Figure 4 are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Cell:
    """One standard cell.

    Attributes
    ----------
    name:
        Cell name, e.g. ``"NAND2_X1"``.
    area:
        Cell area in µm².
    leakage_nw:
        Static leakage power in nanowatts.
    switch_energy_fj:
        Dynamic energy per output toggle in femtojoules.
    num_inputs:
        Fan-in of the cell (0 for constants, 1 for INV/BUF, …).
    """

    name: str
    area: float
    leakage_nw: float
    switch_energy_fj: float
    num_inputs: int


class CellLibrary:
    """A named collection of :class:`Cell` entries."""

    def __init__(self, name: str, cells: Dict[str, Cell]) -> None:
        self.name = name
        self.cells = dict(cells)

    def cell(self, name: str) -> Cell:
        try:
            return self.cells[name]
        except KeyError as exc:
            raise KeyError(f"library {self.name!r} has no cell {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __len__(self) -> int:
        return len(self.cells)

    def best_cell(self, prefix: str, num_inputs: int) -> Cell:
        """The smallest cell whose name starts with ``prefix`` and supports
        at least ``num_inputs`` inputs (used by the mapper for wide gates)."""
        candidates = [
            c for c in self.cells.values()
            if c.name.startswith(prefix) and c.num_inputs >= num_inputs
        ]
        if not candidates:
            raise KeyError(f"no {prefix}* cell with >= {num_inputs} inputs")
        return min(candidates, key=lambda c: (c.num_inputs, c.area))


def generic_45nm_library() -> CellLibrary:
    """The default generic 45 nm-style library used by the overhead model."""
    cells = [
        Cell("INV_X1", 0.532, 10.0, 0.8, 1),
        Cell("BUF_X1", 0.798, 12.0, 1.0, 1),
        Cell("NAND2_X1", 0.798, 12.5, 1.1, 2),
        Cell("NAND3_X1", 1.064, 16.0, 1.4, 3),
        Cell("NAND4_X1", 1.330, 20.0, 1.7, 4),
        Cell("NOR2_X1", 0.798, 12.5, 1.1, 2),
        Cell("NOR3_X1", 1.064, 16.5, 1.4, 3),
        Cell("NOR4_X1", 1.330, 21.0, 1.7, 4),
        Cell("AND2_X1", 1.064, 15.0, 1.3, 2),
        Cell("AND3_X1", 1.330, 18.0, 1.6, 3),
        Cell("AND4_X1", 1.596, 22.0, 1.9, 4),
        Cell("OR2_X1", 1.064, 15.0, 1.3, 2),
        Cell("OR3_X1", 1.330, 18.5, 1.6, 3),
        Cell("OR4_X1", 1.596, 22.5, 1.9, 4),
        Cell("XOR2_X1", 1.596, 24.0, 2.2, 2),
        Cell("XNOR2_X1", 1.596, 24.0, 2.2, 2),
        Cell("MUX2_X1", 1.862, 26.0, 2.4, 3),
        Cell("TIE0_X1", 0.266, 2.0, 0.0, 0),
        Cell("TIE1_X1", 0.266, 2.0, 0.0, 0),
        Cell("DFF_X1", 4.522, 60.0, 5.5, 1),
    ]
    return CellLibrary("generic45", {cell.name: cell for cell in cells})
