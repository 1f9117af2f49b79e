"""Liberty Variation Format (LVF) helpers.

LVF attaches slew- and load-dependent delay sigmas to every timing arc,
with *separate* early and late values — the representation the paper
(Section 3.1, Fig 7) argues will replace relative-margin OCV formats. In
this framework the sigma tables live directly on
:class:`repro.liberty.arcs.ArcTiming`; this module provides library-level
queries and the degradation utilities used by the accuracy-ladder
experiment (strip LVF to emulate a pre-LVF library).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import LibraryError
from repro.liberty.arcs import TimingArc
from repro.liberty.cell import Cell
from repro.liberty.library import Library


def has_lvf(library: Library) -> bool:
    """True when every delay arc in the library carries sigma tables."""
    for cell in library.cells.values():
        for arc in cell.delay_arcs():
            for timing in arc.timing.values():
                if timing.sigma_early is None or timing.sigma_late is None:
                    return False
    return True


def strip_lvf(library: Library) -> int:
    """Remove sigma tables from all arcs (in place). Returns the number of
    arc-timings stripped. Used to emulate plain-NLDM libraries."""
    stripped = 0
    for cell in library.cells.values():
        for arc in cell.arcs:
            for timing in arc.timing.values():
                if timing.sigma_early is not None or timing.sigma_late is not None:
                    timing.sigma_early = None
                    timing.sigma_late = None
                    stripped += 1
    return stripped


def arc_sigma(
    arc: TimingArc,
    out_direction: str,
    in_slew: float,
    load: float,
    mode: str = "late",
) -> float:
    """LVF sigma for an arc lookup; raises when the arc has no LVF data."""
    value = arc.sigma(out_direction, in_slew, load, mode)
    if value is None:
        raise LibraryError(
            f"arc {arc.related_pin}->{arc.pin} has no LVF sigma ({mode})"
        )
    return value


def sigma_asymmetry(cell: Cell, out_direction: str = "fall") -> Optional[float]:
    """Ratio of late to early sigma at the grid centre — >1 reflects the
    right-skewed (setup long tail) delay distribution of Fig 7."""
    arcs = cell.delay_arcs()
    if not arcs:
        return None
    timing = arcs[0].timing.get(out_direction)
    if timing is None or timing.sigma_late is None or timing.sigma_early is None:
        return None
    mid_slew = float(timing.delay.index_1[len(timing.delay.index_1) // 2])
    mid_load = float(timing.delay.index_2[len(timing.delay.index_2) // 2])
    late = timing.sigma_late.lookup(mid_slew, mid_load)
    early = timing.sigma_early.lookup(mid_slew, mid_load)
    if early <= 0.0:
        return None
    return late / early
