"""Clock skew and insertion-delay analysis.

Reports global skew (max - min clock arrival over all CK pins), insertion
delay, and the multi-corner skew variation that the paper's MCMM-CTS
discussion ("each of hundreds of scenarios has different clock insertion
delay") makes a first-class closure concern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import TimingError
from repro.netlist.design import PinRef


@dataclass
class SkewReport:
    """Clock arrival statistics over all flop CK pins."""

    arrivals: Dict[PinRef, float]

    @property
    def insertion_delay(self) -> float:
        """Mean clock arrival (source latency excluded by caller)."""
        return sum(self.arrivals.values()) / len(self.arrivals)

    @property
    def global_skew(self) -> float:
        return max(self.arrivals.values()) - min(self.arrivals.values())

    @property
    def earliest(self) -> PinRef:
        return min(self.arrivals, key=self.arrivals.get)

    @property
    def latest(self) -> PinRef:
        return max(self.arrivals, key=self.arrivals.get)


def clock_skew_report(sta) -> SkewReport:
    """Skew report from a completed STA run (late rising arrivals)."""
    if sta.prop is None:
        raise TimingError("run() must be called before skew analysis")
    arrivals: Dict[PinRef, float] = {}
    for check in sta.graph.setup_checks():
        ck = check.clock_pin
        arr = sta.prop.at(ck, "rise")
        if arr.valid:
            arrivals[ck] = arr.late
    if not arrivals:
        raise TimingError("no clocked flops found")
    return SkewReport(arrivals=arrivals)


@dataclass
class DutyCycleReport:
    """Per-CK-pin duty-cycle distortion through the clock network.

    Distortion is the accumulated rise-vs-fall delay asymmetry of the
    clock path: positive means the high phase *shrinks* (rising edges
    arrive later than falling ones). The cross-corners (FSG/SFG) are
    exactly where this blows up — the reason the paper says they are
    "increasingly required... for signoff of clock distribution".
    """

    distortion: Dict[PinRef, float]

    @property
    def worst(self) -> float:
        return max(self.distortion.values(), key=abs)

    @property
    def mean(self) -> float:
        return sum(self.distortion.values()) / len(self.distortion)


def duty_cycle_report(sta) -> DutyCycleReport:
    """Rise-vs-fall clock arrival asymmetry at every flop CK pin.

    Both edges are seeded simultaneously at the clock root, so the
    arrival difference at a CK pin is purely the clock network's
    rise/fall imbalance (inverter pairs, buffer stage asymmetry, and —
    at cross-corners — the skewed NMOS/PMOS strengths).
    """
    if sta.prop is None:
        raise TimingError("run() must be called before duty-cycle analysis")
    out: Dict[PinRef, float] = {}
    for check in sta.graph.setup_checks():
        ck = check.clock_pin
        rise = sta.prop.at(ck, "rise")
        fall = sta.prop.at(ck, "fall")
        if rise.valid and fall.valid:
            out[ck] = rise.late - fall.late
    if not out:
        raise TimingError("no clocked flops with both edges propagated")
    return DutyCycleReport(distortion=out)


def multi_corner_skew(reports: Dict[str, SkewReport]) -> Dict[str, float]:
    """MCMM skew metrics over per-scenario skew reports.

    Returns global skew per scenario plus ``cross_corner_variation``: the
    worst over CK pins of (max - min arrival across scenarios) — the
    quantity multi-corner CTS ([Han et al. DAC'15]) minimizes.
    """
    if not reports:
        raise TimingError("no skew reports to merge")
    out = {name: rep.global_skew for name, rep in reports.items()}
    common = set.intersection(
        *(set(rep.arrivals) for rep in reports.values())
    )
    if common:
        out["cross_corner_variation"] = max(
            max(rep.arrivals[pin] for rep in reports.values())
            - min(rep.arrivals[pin] for rep in reports.values())
            for pin in common
        )
    return out
