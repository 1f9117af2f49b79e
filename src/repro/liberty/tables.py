"""NLDM-style 2-D lookup tables.

The non-linear delay model (NLDM) represents delay and output slew as 2-D
tables indexed by input slew and output load. Lookup uses bilinear
interpolation inside the grid and linear extrapolation outside it, matching
mainstream STA-tool behaviour.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import LibraryError


class LookupTable2D:
    """A table ``values[i][j]`` indexed by ``index_1[i]`` and ``index_2[j]``.

    Conventionally ``index_1`` is input slew (ps) and ``index_2`` is output
    load (fF), but the class is agnostic — constraint tables index by data
    slew and clock slew.
    """

    def __init__(
        self,
        index_1: Sequence[float],
        index_2: Sequence[float],
        values: Sequence[Sequence[float]],
    ):
        self.index_1 = np.asarray(index_1, dtype=float)
        self.index_2 = np.asarray(index_2, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.index_1.ndim != 1 or self.index_2.ndim != 1:
            raise LibraryError("table indices must be 1-D")
        if self.index_1.size < 2 or self.index_2.size < 2:
            raise LibraryError("table needs at least a 2x2 grid")
        if np.any(np.diff(self.index_1) <= 0) or np.any(np.diff(self.index_2) <= 0):
            raise LibraryError("table indices must be strictly increasing")
        if self.values.shape != (self.index_1.size, self.index_2.size):
            raise LibraryError(
                f"values shape {self.values.shape} does not match indices "
                f"({self.index_1.size}, {self.index_2.size})"
            )

    @classmethod
    def from_function(
        cls,
        index_1: Sequence[float],
        index_2: Sequence[float],
        fn: Callable[[float, float], float],
    ) -> "LookupTable2D":
        """Tabulate ``fn(x1, x2)`` over the grid."""
        vals = [[fn(x1, x2) for x2 in index_2] for x1 in index_1]
        return cls(index_1, index_2, vals)

    def lookup(self, x1: float, x2: float) -> float:
        """Bilinear interpolation, linear extrapolation outside the grid."""
        i = _segment(self.index_1, x1)
        j = _segment(self.index_2, x2)
        x1a, x1b = self.index_1[i], self.index_1[i + 1]
        x2a, x2b = self.index_2[j], self.index_2[j + 1]
        u = (x1 - x1a) / (x1b - x1a)
        v = (x2 - x2a) / (x2b - x2a)
        q = self.values
        return float(
            q[i, j] * (1 - u) * (1 - v)
            + q[i + 1, j] * u * (1 - v)
            + q[i, j + 1] * (1 - u) * v
            + q[i + 1, j + 1] * u * v
        )

    def scaled(self, factor: float) -> "LookupTable2D":
        """A new table with every value multiplied by ``factor``."""
        return LookupTable2D(self.index_1, self.index_2, self.values * factor)

    def shifted(self, offset: float) -> "LookupTable2D":
        """A new table with ``offset`` added to every value."""
        return LookupTable2D(self.index_1, self.index_2, self.values + offset)

    def combined(
        self, other: "LookupTable2D", fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> "LookupTable2D":
        """Elementwise combination with another same-grid table."""
        if not self.same_grid(other):
            raise LibraryError("cannot combine tables with different grids")
        return LookupTable2D(self.index_1, self.index_2, fn(self.values, other.values))

    def same_grid(self, other: "LookupTable2D") -> bool:
        """True when both tables share identical index vectors."""
        return bool(
            np.array_equal(self.index_1, other.index_1)
            and np.array_equal(self.index_2, other.index_2)
        )

    @property
    def min_value(self) -> float:
        return float(self.values.min())

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    def is_monotone_nondecreasing(self) -> bool:
        """True when values never decrease along either axis (the expected
        shape for delay/slew tables)."""
        return bool(
            np.all(np.diff(self.values, axis=0) >= -1e-12)
            and np.all(np.diff(self.values, axis=1) >= -1e-12)
        )

    def __repr__(self) -> str:
        return (
            f"LookupTable2D({self.index_1.size}x{self.index_2.size}, "
            f"range [{self.min_value:.3g}, {self.max_value:.3g}])"
        )


def _segment(index: np.ndarray, x: float) -> int:
    """Index of the grid segment used for interpolation/extrapolation."""
    i = int(np.searchsorted(index, x, side="right")) - 1
    return max(0, min(i, index.size - 2))
