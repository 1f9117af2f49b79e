"""Library-variant reduction (Section 4, future (4)(iv)).

"Improved methods for reducing the number of timing libraries or library
variants will be needed." Characterizing and managing a library per
(process, voltage, temperature, aging) point is a real cost; this module
selects a subset of conditions whose *bracketing* coverage of a probe
population stays within a tolerance, plus the voltage-interpolation
support ("interpolation across lib groups") that signoff STA tools offer
so fewer voltage points need characterizing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.errors import LibraryError
from repro.liberty import LibraryCondition, make_library
from repro.liberty.library import Library

#: Probe arcs: (cell, out_direction, slew, load) — a small, diverse set
#: whose delays fingerprint a condition.
DEFAULT_PROBES: Tuple[Tuple[str, str, float, float], ...] = (
    ("INV_X1_SVT", "fall", 20.0, 4.0),
    ("INV_X4_LVT", "rise", 10.0, 16.0),
    ("NAND2_X1_HVT", "fall", 40.0, 8.0),
    ("NOR2_X2_SVT", "rise", 20.0, 8.0),
    ("AOI21_X1_SVT", "fall", 20.0, 4.0),
    ("BUF_X4_SVT", "rise", 20.0, 32.0),
)


def condition_fingerprint(
    library: Library,
    probes: Sequence[Tuple[str, str, float, float]] = DEFAULT_PROBES,
) -> List[float]:
    """Probe-arc delays characterizing a library condition."""
    out = []
    for cell_name, direction, slew, load in probes:
        cell = library.cell(cell_name)
        arc = cell.delay_arcs()[0]
        out.append(arc.delay_and_slew(direction, slew, load)[0])
    return out


def _coverage_error(kept: List[List[float]], probe: List[float]) -> float:
    """Worst relative distance from ``probe`` to its nearest kept
    fingerprint (0 when a kept condition matches it exactly)."""
    best = float("inf")
    for fp in kept:
        worst_dim = max(
            abs(a - b) / max(abs(b), 1e-9) for a, b in zip(fp, probe)
        )
        best = min(best, worst_dim)
    return best


@dataclass
class ReductionResult:
    """Which conditions survive and how well they cover the rest."""

    kept: List[LibraryCondition]
    dropped: List[LibraryCondition]
    worst_coverage_error: float

    @property
    def reduction_ratio(self) -> float:
        total = len(self.kept) + len(self.dropped)
        return len(self.dropped) / total if total else 0.0


def reduce_library_set(
    conditions: Sequence[LibraryCondition],
    tolerance: float = 0.05,
    probes: Sequence[Tuple[str, str, float, float]] = DEFAULT_PROBES,
    library_factory: Callable[[LibraryCondition], Library] = None,
) -> ReductionResult:
    """Greedy farthest-point selection of a covering condition subset.

    Starts from the extreme (slowest and fastest) conditions, then adds
    the worst-covered condition until every dropped condition's
    fingerprint lies within ``tolerance`` (relative) of a kept one.
    """
    if not conditions:
        raise LibraryError("no conditions to reduce")
    factory = library_factory or (lambda c: make_library(c, flavors=("svt", "lvt", "hvt")))
    fingerprints = [
        condition_fingerprint(factory(c), probes) for c in conditions
    ]

    order = sorted(range(len(conditions)),
                   key=lambda i: sum(fingerprints[i]))
    kept_idx = {order[0], order[-1]} if len(conditions) > 1 else {order[0]}

    while True:
        kept_fps = [fingerprints[i] for i in kept_idx]
        worst_err, worst_i = 0.0, None
        for i in range(len(conditions)):
            if i in kept_idx:
                continue
            err = _coverage_error(kept_fps, fingerprints[i])
            if err > worst_err:
                worst_err, worst_i = err, i
        if worst_i is None or worst_err <= tolerance:
            break
        kept_idx.add(worst_i)

    kept = [conditions[i] for i in sorted(kept_idx)]
    dropped = [c for i, c in enumerate(conditions) if i not in kept_idx]
    kept_fps = [fingerprints[i] for i in kept_idx]
    final_err = max(
        (_coverage_error(kept_fps, fingerprints[i])
         for i in range(len(conditions)) if i not in kept_idx),
        default=0.0,
    )
    return ReductionResult(kept=kept, dropped=dropped,
                           worst_coverage_error=final_err)


# ---------------------------------------------------------------------- #
# voltage interpolation ("interpolation across lib groups")


class InterpolatedArcLookup:
    """Linear voltage interpolation between two characterized libraries.

    The paper notes signoff STA tools' "improved support of voltage
    scaling (interpolation across lib groups)": instead of
    characterizing every AVS voltage point, bracket it. Lookups
    interpolate delay/slew linearly in VDD between the two libraries.
    """

    def __init__(self, lib_lo: Library, lib_hi: Library):
        if lib_lo.vdd >= lib_hi.vdd:
            raise LibraryError("lib_lo must be the lower-voltage library")
        self.lib_lo = lib_lo
        self.lib_hi = lib_hi

    def delay(self, cell_name: str, out_direction: str, slew: float,
              load: float, vdd: float) -> float:
        if not self.lib_lo.vdd <= vdd <= self.lib_hi.vdd:
            raise LibraryError(
                f"{vdd} V outside the bracketing range "
                f"[{self.lib_lo.vdd}, {self.lib_hi.vdd}]"
            )
        d_lo = self.lib_lo.cell(cell_name).delay_arcs()[0].delay_and_slew(
            out_direction, slew, load
        )[0]
        d_hi = self.lib_hi.cell(cell_name).delay_arcs()[0].delay_and_slew(
            out_direction, slew, load
        )[0]
        frac = (vdd - self.lib_lo.vdd) / (self.lib_hi.vdd - self.lib_lo.vdd)
        return d_lo + frac * (d_hi - d_lo)

    def interpolation_error(self, cell_name: str, out_direction: str,
                            slew: float, load: float, vdd: float) -> float:
        """Relative error of the interpolation vs a truly characterized
        library at ``vdd`` — the quantity that decides how many voltage
        points a lib group needs."""
        truth_lib = make_library(
            LibraryCondition(vdd=vdd, temp_c=self.lib_lo.temp_c,
                             process=self.lib_lo.process),
        )
        truth = truth_lib.cell(cell_name).delay_arcs()[0].delay_and_slew(
            out_direction, slew, load
        )[0]
        approx = self.delay(cell_name, out_direction, slew, load, vdd)
        return abs(approx - truth) / truth
