"""Performance-monitor circuits: generic and design-dependent ring
oscillators (DDROs).

Section 4 lists "design and deployment of (critical path-mimicking)
process/aging monitor circuits" among the disciplines timing closure now
spans; [Chan-Gupta-Kahng-Lai TVLSI'13] synthesizes *design-dependent*
ring oscillators whose cell-type and loading mix mirrors the critical
paths, so the monitor's frequency tracks the paths' delay across
voltage, temperature, process and aging far better than a plain
inverter RO — which is what makes monitor-driven AVS (and the paper's
"signoff at typical" goal post) safe.

A monitor here is a composition of library arcs: its period is twice the
sum of stage delays evaluated against any library condition, so the same
monitor object can be "measured" at every PVT/aging point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import SignoffError
from repro.liberty import LibraryCondition, make_library
from repro.liberty.library import Library
from repro.sta.analysis import STA
from repro.sta.reports import TimingReport

_EVAL_SLEW = 20.0  # ps, fixed characterization slew for monitor stages


@dataclass(frozen=True)
class MonitorStage:
    """One stage of a ring oscillator: a cell arc plus its load."""

    cell_name: str
    load_ff: float


@dataclass
class RingOscillator:
    """A ring oscillator composed of library cells.

    ``period(library)`` evaluates the oscillation period (ps) against a
    library: twice the sum of average rise/fall stage delays, which is
    exact for an odd-inverting ring to first order.
    """

    name: str
    stages: List[MonitorStage]

    def period(self, library: Library) -> float:
        total = 0.0
        for stage in self.stages:
            cell = library.cell(stage.cell_name)
            arc = cell.delay_arcs()[0]
            delays = [
                arc.delay_and_slew(direction, _EVAL_SLEW, stage.load_ff)[0]
                for direction in arc.timing
            ]
            total += sum(delays) / len(delays)
        return 2.0 * total

    def frequency(self, library: Library) -> float:
        """Oscillation frequency in GHz (1e3 / period_ps)."""
        return 1e3 / self.period(library)


def generic_ro(n_stages: int = 15, flavor: str = "svt",
               load_ff: float = 3.0) -> RingOscillator:
    """The classic process monitor: an inverter ring, one flavor."""
    return RingOscillator(
        name=f"generic_inv{n_stages}_{flavor}",
        stages=[
            MonitorStage(f"INV_X1_{flavor.upper()}", load_ff)
            for _ in range(n_stages)
        ],
    )


def design_dependent_ro(sta: STA, report: TimingReport,
                        n_paths: int = 5,
                        max_stages: int = 40) -> RingOscillator:
    """Synthesize a DDRO mirroring the design's critical-path cell mix.

    Walks the worst setup paths and copies each cell stage (cell name
    plus the actual load its output drives) into the ring, so the
    monitor inherits the paths' Vt-flavor mix, stack depths and loading —
    the [3] recipe.
    """
    stages: List[MonitorStage] = []
    for endpoint in report.endpoints("setup")[:n_paths]:
        if endpoint.kind != "setup":
            continue
        path = sta.worst_path(endpoint)
        for point in path.points:
            if point.kind != "cell" or point.ref.is_port:
                continue
            cell = sta.graph.cell_of(point.ref)
            if cell.is_sequential:
                continue
            load = sta.prop.loads.get(point.ref, 4.0)
            stages.append(MonitorStage(cell.name, load))
            if len(stages) >= max_stages:
                return RingOscillator(name="ddro", stages=stages)
    if not stages:
        raise SignoffError("no combinational stages found for the DDRO")
    return RingOscillator(name="ddro", stages=stages)


# ---------------------------------------------------------------------- #
# tracking evaluation


@dataclass
class TrackingResult:
    """How well a monitor tracks true critical-path slowdown."""

    monitor_name: str
    conditions: List[str]
    path_ratios: List[float]  # true path-delay ratio vs nominal
    monitor_ratios: List[float]  # monitor-period ratio vs nominal

    @property
    def max_tracking_error(self) -> float:
        return max(
            abs(m - p) for m, p in zip(self.monitor_ratios, self.path_ratios)
        )

    @property
    def mean_tracking_error(self) -> float:
        errors = [
            abs(m - p) for m, p in zip(self.monitor_ratios, self.path_ratios)
        ]
        return sum(errors) / len(errors)


def evaluate_tracking(
    monitor: RingOscillator,
    design,
    constraints,
    conditions: Sequence[LibraryCondition],
    nominal: Optional[LibraryCondition] = None,
    flavors: tuple = ("lvt", "svt", "hvt"),
) -> TrackingResult:
    """Measure monitor-vs-path tracking across library conditions.

    The "true" signal is the worst setup arrival's scaling (STA at each
    condition); the monitor signal is its period scaling.
    """
    nominal = nominal or LibraryCondition()
    nom_lib = make_library(nominal, flavors=flavors)
    nom_report = STA(design, nom_lib, constraints).run()
    nom_arrival = max(
        e.arrival for e in nom_report.endpoints("setup") if e.kind == "setup"
    )
    nom_period = monitor.period(nom_lib)

    labels, path_ratios, monitor_ratios = [], [], []
    for cond in conditions:
        lib = make_library(cond, flavors=flavors)
        report = STA(design, lib, constraints).run()
        arrival = max(
            e.arrival for e in report.endpoints("setup") if e.kind == "setup"
        )
        labels.append(cond.label())
        path_ratios.append(arrival / nom_arrival)
        monitor_ratios.append(monitor.period(lib) / nom_period)
    return TrackingResult(
        monitor_name=monitor.name,
        conditions=labels,
        path_ratios=path_ratios,
        monitor_ratios=monitor_ratios,
    )


def monitor_guided_voltage(
    monitor: RingOscillator,
    target_ratio: float,
    delta_vt: float = 0.0,
    v_min: float = 0.55,
    v_max: float = 1.05,
    resolution: float = 0.005,
    temp_c: float = 105.0,
    process: str = "tt",
    flavors: tuple = ("lvt", "svt", "hvt"),
) -> float:
    """The voltage an AVS loop driven by this monitor would settle at.

    Finds the lowest rail at which the monitor's period is no more than
    ``target_ratio`` times its nominal-condition period. This is the
    PVS-like adaptivity of [2]/[5]: the monitor, not a full STA, closes
    the loop in silicon.
    """
    nominal = make_library(LibraryCondition(), flavors=flavors)
    nom_period = monitor.period(nominal)

    def ok(vdd: float) -> bool:
        lib = make_library(
            LibraryCondition(vdd=vdd, temp_c=temp_c, process=process,
                             vt_shift_aging=delta_vt),
            flavors=flavors,
        )
        return monitor.period(lib) <= target_ratio * nom_period

    if not ok(v_max):
        raise SignoffError(
            f"monitor target unreachable even at {v_max} V"
        )
    if ok(v_min):
        return v_min
    lo, hi = v_min, v_max
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi
