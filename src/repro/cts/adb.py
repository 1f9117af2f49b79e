"""Adjustable delay buffers (ADBs) for multi-voltage-mode clock skew.

The paper's MCMM-CTS discussion: "each of hundreds of scenarios has
different clock insertion delay and timing constraints" — a fixed buffer
tree balanced at one voltage mode is skewed at another because gate and
wire delays scale differently. [Su et al., TCAD'10] equalizes skew across
modes with *adjustable* delay buffers whose settings switch with the
mode.

Two assignment policies are provided for comparison:

- :func:`assign_per_mode` — one setting per (sink, mode): skew per mode
  collapses to the ADB step size (the Su et al. capability);
- :func:`assign_static` — one setting per sink for all modes (what a
  fixed-delay fix could do): the residual cross-mode skew shows why
  adjustability is worth the area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import TimingError
from repro.netlist.design import PinRef
from repro.cts.skew import SkewReport


@dataclass(frozen=True)
class AdbMenu:
    """The discrete delay settings an ADB offers, ps."""

    step: float = 4.0
    n_steps: int = 8

    def settings(self) -> List[float]:
        return [i * self.step for i in range(self.n_steps + 1)]

    @property
    def max_delay(self) -> float:
        return self.step * self.n_steps

    def quantize_down(self, value: float) -> float:
        """Largest setting not exceeding ``value`` (clamped to range)."""
        clamped = min(max(value, 0.0), self.max_delay)
        return math.floor(clamped / self.step) * self.step


@dataclass
class AdbAssignment:
    """Chosen settings and the resulting skews."""

    settings: Dict[Tuple[str, PinRef], float]  # (mode, sink) -> delay
    skew_before: Dict[str, float]
    skew_after: Dict[str, float]

    @property
    def worst_skew_before(self) -> float:
        return max(self.skew_before.values())

    @property
    def worst_skew_after(self) -> float:
        return max(self.skew_after.values())


def assign_per_mode(reports: Dict[str, SkewReport],
                    menu: AdbMenu = AdbMenu()) -> AdbAssignment:
    """Per-(mode, sink) settings: pad every early sink up toward the
    latest arrival of its mode. Residual skew <= one ADB step (unless the
    mode's skew exceeds the ADB range)."""
    if not reports:
        raise TimingError("need at least one mode's skew report")
    settings: Dict[Tuple[str, PinRef], float] = {}
    before: Dict[str, float] = {}
    after: Dict[str, float] = {}
    for mode, report in reports.items():
        before[mode] = report.global_skew
        target = max(report.arrivals.values())
        adjusted = {}
        for sink, arrival in report.arrivals.items():
            delay = menu.quantize_down(target - arrival)
            settings[(mode, sink)] = delay
            adjusted[sink] = arrival + delay
        after[mode] = max(adjusted.values()) - min(adjusted.values())
    return AdbAssignment(settings=settings, skew_before=before,
                         skew_after=after)


def assign_static(reports: Dict[str, SkewReport],
                  menu: AdbMenu = AdbMenu()) -> AdbAssignment:
    """One setting per sink shared by all modes.

    The setting is chosen against the *average* lateness across modes —
    the best a non-adjustable delay fix can do — leaving residual skew
    wherever modes disagree about which sinks are early.
    """
    if not reports:
        raise TimingError("need at least one mode's skew report")
    sinks = set.intersection(*(set(r.arrivals) for r in reports.values()))
    if not sinks:
        raise TimingError("modes share no common clock sinks")

    mean_lateness: Dict[PinRef, float] = {}
    for sink in sinks:
        gaps = [
            max(r.arrivals.values()) - r.arrivals[sink]
            for r in reports.values()
        ]
        mean_lateness[sink] = sum(gaps) / len(gaps)

    shared = {sink: menu.quantize_down(mean_lateness[sink])
              for sink in sinks}

    settings: Dict[Tuple[str, PinRef], float] = {}
    before: Dict[str, float] = {}
    after: Dict[str, float] = {}
    for mode, report in reports.items():
        before[mode] = report.global_skew
        adjusted = {
            sink: report.arrivals[sink] + shared[sink] for sink in sinks
        }
        after[mode] = max(adjusted.values()) - min(adjusted.values())
        for sink in sinks:
            settings[(mode, sink)] = shared[sink]
    return AdbAssignment(settings=settings, skew_before=before,
                         skew_after=after)
