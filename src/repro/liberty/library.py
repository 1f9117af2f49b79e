"""The library container.

A :class:`Library` is a set of cells characterized at one PVT condition
(the MCMM machinery in :mod:`repro.sta.mcmm` juggles several libraries).
It provides the queries that closure optimizations need: footprint
variants for sizing, Vt variants for swapping, and buffer menus for
buffer insertion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import LibraryError
from repro.liberty.cell import Cell


@dataclass
class Library:
    """A characterized cell library.

    Attributes:
        name: library name, conventionally encoding the condition
            (e.g. ``"repro16_tt_0p80v_25c"``).
        vdd: supply voltage, V.
        temp_c: temperature, C.
        process: process-corner label ("tt", "ss", "ff", "ssg", "ffg").
        default_max_transition: signoff slew limit, ps.
        cells: cells by name.
    """

    name: str
    vdd: float
    temp_c: float
    process: str = "tt"
    default_max_transition: float = 150.0
    cells: Dict[str, Cell] = field(default_factory=dict)

    def add_cell(self, cell: Cell) -> None:
        if cell.name in self.cells:
            raise LibraryError(f"duplicate cell {cell.name} in library {self.name}")
        self.cells[cell.name] = cell

    def cell(self, name: str) -> Cell:
        try:
            return self.cells[name]
        except KeyError:
            raise LibraryError(f"library {self.name} has no cell {name!r}") from None

    # ------------------------------------------------------------------ #
    # optimization menus

    def footprint_variants(self, footprint: str) -> List[Cell]:
        """All cells sharing a footprint, sorted by (size, vt_flavor)."""
        variants = [c for c in self.cells.values() if c.footprint == footprint]
        if not variants:
            raise LibraryError(f"no cells with footprint {footprint!r}")
        return sorted(variants, key=lambda c: (c.size, c.vt_flavor))

    def swap_variant(
        self,
        cell: Cell,
        vt_flavor: Optional[str] = None,
        size: Optional[float] = None,
    ) -> Optional[Cell]:
        """The footprint variant with the requested flavor/size, if any.

        Unspecified attributes keep the current cell's value. Returns None
        when the menu has no such variant (e.g. asking for a ULVT variant
        in a 3-flavor library).
        """
        want_flavor = vt_flavor if vt_flavor is not None else cell.vt_flavor
        want_size = size if size is not None else cell.size
        for candidate in self.cells.values():
            if (
                candidate.footprint == cell.footprint
                and candidate.vt_flavor == want_flavor
                and candidate.size == want_size
            ):
                return candidate
        return None

    def vt_menu(self, cell: Cell) -> List[Cell]:
        """Same footprint and size, all flavors, fastest (lowest Vt) first."""
        order = {"ulvt": 0, "lvt": 1, "svt": 2, "hvt": 3, "uhvt": 4}
        variants = [
            c
            for c in self.cells.values()
            if c.footprint == cell.footprint and c.size == cell.size
        ]
        return sorted(variants, key=lambda c: order.get(c.vt_flavor, 9))

    def size_menu(self, cell: Cell) -> List[Cell]:
        """Same footprint and flavor, all sizes, smallest first."""
        variants = [
            c
            for c in self.cells.values()
            if c.footprint == cell.footprint and c.vt_flavor == cell.vt_flavor
        ]
        return sorted(variants, key=lambda c: c.size)

    def buffers(self, vt_flavor: str = "svt") -> List[Cell]:
        """Buffer cells of one flavor, smallest first (for buffer insertion)."""
        bufs = [
            c
            for c in self.cells.values()
            if c.footprint == "buf" and c.vt_flavor == vt_flavor
        ]
        if not bufs:
            raise LibraryError(f"no {vt_flavor} buffers in library {self.name}")
        return sorted(bufs, key=lambda c: c.size)

    def sequential_cells(self) -> List[Cell]:
        return [c for c in self.cells.values() if c.is_sequential]

    def footprints(self) -> List[str]:
        return sorted({c.footprint for c in self.cells.values()})

    def __len__(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:
        return (
            f"Library({self.name!r}, {len(self.cells)} cells, "
            f"vdd={self.vdd}V, {self.temp_c}C, {self.process})"
        )
