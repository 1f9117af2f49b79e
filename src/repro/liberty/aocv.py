"""AOCV derate tables and POCV per-cell sigmas.

The paper's Section 3.1 describes the variation-modeling ladder:

- *flat OCV*: one derate factor for everything;
- *AOCV*: derates tabulated against path stage count (statistical
  averaging: deep paths see less relative variation) and spatial extent
  (bounding-box diagonal: compact paths see less global spread);
- *POCV*: one sigma per cell, accumulated in RSS along the path;
- *LVF*: per-arc, per-(slew, load), separate early/late sigmas
  (:mod:`repro.liberty.lvf`).

AOCV's central weakness — "it essentially assumes that all gates are
identical and identically loaded" — is visible here by construction:
:func:`AocvTable.from_reference_sigma` bakes one representative sigma into
the whole table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import LibraryError
from repro.liberty.arcs import TimingArc
from repro.liberty.cell import Cell

DEFAULT_DEPTHS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
DEFAULT_DISTANCES = (0.0, 100.0, 250.0, 500.0, 1000.0)  # um


@dataclass
class AocvTable:
    """Stage-count- and distance-dependent derates.

    ``late_derates[i][j]`` multiplies late (max) delays for a path of depth
    ``depths[i]`` and bounding-box diagonal ``distances[j]``;
    ``early_derates`` analogously divides early (min) delays below 1.0.
    """

    depths: Tuple[float, ...]
    distances: Tuple[float, ...]
    late_derates: np.ndarray
    early_derates: np.ndarray

    @classmethod
    def from_reference_sigma(
        cls,
        sigma_rel: float,
        n_sigma: float = 3.0,
        distance_coeff: float = 2e-5,
        depths: Sequence[float] = DEFAULT_DEPTHS,
        distances: Sequence[float] = DEFAULT_DISTANCES,
    ) -> "AocvTable":
        """Build the table from one representative per-stage sigma.

        Statistical averaging of independent stage variation gives a path
        derate of ``1 +/- n_sigma * sigma_rel / sqrt(depth)``; a linear
        distance term models residual global (spatially correlated) spread.
        """
        depths_arr = np.asarray(depths, dtype=float)
        dist_arr = np.asarray(distances, dtype=float)
        stage = n_sigma * sigma_rel / np.sqrt(depths_arr)[:, None]
        spatial = distance_coeff * dist_arr[None, :]
        return cls(
            depths=tuple(depths),
            distances=tuple(distances),
            late_derates=1.0 + stage + spatial,
            early_derates=np.maximum(1.0 - stage - spatial, 0.05),
        )

    def derate(self, depth: float, distance: float, mode: str) -> float:
        """Interpolated derate for a path depth/extent.

        ``mode`` is ``"late"`` or ``"early"``.
        """
        if mode not in ("late", "early"):
            raise LibraryError(f"bad derate mode {mode!r}")
        table = self.late_derates if mode == "late" else self.early_derates
        d = np.clip(depth, self.depths[0], self.depths[-1])
        x = np.clip(distance, self.distances[0], self.distances[-1])
        i = int(np.searchsorted(self.depths, d, side="right")) - 1
        i = max(0, min(i, len(self.depths) - 2))
        j = int(np.searchsorted(self.distances, x, side="right")) - 1
        j = max(0, min(j, len(self.distances) - 2))
        u = (d - self.depths[i]) / (self.depths[i + 1] - self.depths[i])
        v = (x - self.distances[j]) / (self.distances[j + 1] - self.distances[j])
        return float(
            table[i, j] * (1 - u) * (1 - v)
            + table[i + 1, j] * u * (1 - v)
            + table[i, j + 1] * (1 - u) * v
            + table[i + 1, j + 1] * u * v
        )


def pocv_sigma(cell: Cell, out_direction: str = "fall", mode: str = "late") -> float:
    """POCV: one relative sigma per cell.

    Computed as the grid-average ratio of the LVF sigma table to the delay
    table over the cell's first delay arc — exactly the information loss
    POCV accepts relative to LVF ("one number per cell" vs "one number per
    load-slew combination per cell").
    """
    arcs = cell.delay_arcs()
    if not arcs:
        raise LibraryError(f"cell {cell.name} has no delay arcs")
    return arc_pocv_sigma(arcs[0], out_direction, mode)


def arc_pocv_sigma(arc: TimingArc, out_direction: str = "fall",
                   mode: str = "late") -> float:
    """Grid-average relative sigma of one arc."""
    timing = arc.timing.get(out_direction)
    if timing is None:
        timing = next(iter(arc.timing.values()))
    sigma_tab = timing.sigma_late if mode == "late" else timing.sigma_early
    if sigma_tab is None:
        raise LibraryError("arc has no LVF sigma tables to project from")
    ratios = sigma_tab.values / np.maximum(timing.delay.values, 1e-12)
    return float(ratios.mean())


def library_reference_sigma(cells: Sequence[Cell], mode: str = "late") -> float:
    """Representative sigma for AOCV table construction: the mean POCV
    sigma over the given cells (typically one size/flavor slice)."""
    sigmas = []
    for cell in cells:
        try:
            sigmas.append(pocv_sigma(cell, mode=mode))
        except LibraryError:
            continue
    if not sigmas:
        raise LibraryError("no cells with sigma information")
    return float(np.mean(sigmas))
