"""Aging-aware signoff: the chicken-egg loop and the Fig 9 corner sweep.

Signoff must *assume* some end-of-life threshold shift. Assume too little
and AVS spends the product's lifetime at elevated voltage (energy
penalty, further accelerated aging); assume too much and the design is
over-sized at tapeout (area penalty). [Chan-Chan-Kahng TCAS'14] — the
paper's Fig 9 — quantifies the tradeoff by implementing the same circuit
at a sweep of assumed aging corners and simulating each implementation's
AVS-managed lifetime. :func:`sweep_aging_corners` reproduces exactly that
experiment on our synthetic circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.aging.avs import AvsController
from repro.aging.bti import BtiModel
from repro.errors import SignoffError
from repro.liberty import LibraryCondition, make_library
from repro.netlist.design import Design
from repro.netlist.transforms import upsize
from repro.parasitics.synthesis import ParasiticExtractor
from repro.power.models import design_power
from repro.sta import STA, Constraints


@dataclass
class LifetimeResult:
    """Trajectory of one AVS-managed lifetime."""

    times: List[float]  # years
    voltages: List[float]  # V at each time
    delta_vts: List[float]  # accumulated shift, V
    powers: List[float]  # total power at each time, mW

    @property
    def average_power(self) -> float:
        """Time-weighted mean power over the lifetime, mW."""
        if len(self.times) < 2:
            return self.powers[0] if self.powers else 0.0
        total_energy = 0.0
        for i in range(1, len(self.times)):
            dt = self.times[i] - self.times[i - 1]
            total_energy += 0.5 * (self.powers[i] + self.powers[i - 1]) * dt
        return total_energy / (self.times[-1] - self.times[0])

    @property
    def final_voltage(self) -> float:
        return self.voltages[-1]


def simulate_lifetime(
    design: Design,
    constraints: Constraints,
    years: float = 10.0,
    steps: int = 5,
    bti: BtiModel = BtiModel(),
    avs: Optional[AvsController] = None,
    temp_c: float = 105.0,
    activity: float = 0.15,
) -> LifetimeResult:
    """Run the AVS/aging closed loop over a product lifetime.

    At each time step: accumulate BTI shift under the voltages applied so
    far, then let AVS pick the minimum voltage that still closes timing
    at that shift. Voltage is monotone nondecreasing over life (aging
    never reverses here), and each raise accelerates subsequent aging —
    the chicken-egg loop, resolved by forward simulation.
    """
    avs = avs or AvsController(design=design, constraints=constraints,
                               temp_c=temp_c)
    period = constraints.the_clock().period

    times = [years * i / steps for i in range(steps + 1)]
    voltages: List[float] = []
    shifts: List[float] = []
    powers: List[float] = []

    segments: List[Tuple[float, float]] = []
    v = avs.voltage_for(0.0)
    for i, t in enumerate(times):
        if i > 0:
            segments.append((times[i] - times[i - 1], v))
        shift = bti.accumulate(segments, temp_c=temp_c) if segments else 0.0
        v = max(v, avs.voltage_for(shift))  # AVS only raises over life
        lib = make_library(
            LibraryCondition(vdd=v, temp_c=temp_c, process=avs.process,
                             vt_shift_aging=shift),
            flavors=avs.flavors,
        )
        extractor = ParasiticExtractor(
            design, lib, STA(design, lib, constraints).stack,
            STA(design, lib, constraints).beol_corner, temp_c=temp_c,
        )
        power = design_power(design, lib, extractor, period,
                             activity=activity).total
        voltages.append(v)
        shifts.append(shift)
        powers.append(power)
    return LifetimeResult(times=times, voltages=voltages,
                          delta_vts=shifts, powers=powers)


@dataclass
class AgingCornerOutcome:
    """One point of the Fig 9 tradeoff."""

    assumed_shift_mv: float
    area: float
    average_power: float
    final_voltage: float
    closed: bool


def greedy_upsize_closure(
    design: Design,
    library,
    constraints: Constraints,
    max_edits: int = 400,
) -> bool:
    """Close setup timing by upsizing cells on violating paths.

    A deliberately simple implementation engine for the aging sweep (the
    full Fig 1 closure loop lives in :mod:`repro.core.closure`). Returns
    True when WNS >= 0 was reached.
    """
    for _ in range(max_edits // 8 + 1):
        sta = STA(design, library, constraints)
        report = sta.run()
        if report.wns("setup") >= 0.0:
            return True
        edits = 0
        for endpoint in report.violations("setup")[:8]:
            path = sta.worst_path(endpoint)
            for point in sorted(path.points, key=lambda p: -p.increment):
                if point.kind != "cell" or point.ref.is_port:
                    continue
                if upsize(design, library, point.ref.instance) is not None:
                    edits += 1
                    break
        if edits == 0:
            return False
    sta = STA(design, library, constraints)
    return sta.run().wns("setup") >= 0.0


def sweep_aging_corners(
    design_factory: Callable[[], Design],
    constraints: Constraints,
    corners_mv: Sequence[float] = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0),
    signoff_vdd: float = 0.8,
    years: float = 10.0,
    steps: int = 4,
    bti: BtiModel = BtiModel(),
    temp_c: float = 105.0,
    flavors: tuple = ("lvt", "svt", "hvt"),
) -> List[AgingCornerOutcome]:
    """The Fig 9 experiment: implement at each assumed aging corner, then
    simulate the real AVS-managed lifetime of that implementation.

    Each corner gets a *fresh* copy of the design (from
    ``design_factory``), closed by upsizing against a library aged by the
    assumed shift. Area is read after closure; lifetime average power
    from :func:`simulate_lifetime`.
    """
    outcomes: List[AgingCornerOutcome] = []
    for corner_mv in corners_mv:
        design = design_factory()
        signoff_lib = make_library(
            LibraryCondition(
                vdd=signoff_vdd,
                temp_c=temp_c,
                vt_shift_aging=corner_mv / 1000.0,
            ),
            flavors=flavors,
        )
        closed = greedy_upsize_closure(design, signoff_lib, constraints)
        area = design.total_area(signoff_lib)
        avs = AvsController(design=design, constraints=constraints,
                            temp_c=temp_c, flavors=flavors)
        try:
            life = simulate_lifetime(
                design, constraints, years=years, steps=steps, bti=bti,
                avs=avs, temp_c=temp_c,
            )
            power = life.average_power
            v_final = life.final_voltage
        except SignoffError:
            power = float("inf")
            v_final = float("nan")
        outcomes.append(
            AgingCornerOutcome(
                assumed_shift_mv=corner_mv,
                area=area,
                average_power=power,
                final_voltage=v_final,
                closed=closed,
            )
        )
    return outcomes
