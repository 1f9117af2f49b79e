"""Overdrive-signoff optimization ([Chan-Kahng-Li-Nath-Park, TVLSI'14]).

A part that mostly runs at nominal voltage/frequency must also support an
*overdrive* mode: higher frequency at an elevated rail. Choosing the
overdrive signoff voltage is a real optimization:

- sign off overdrive at a *low* V_od and the implementation needs heavy
  upsizing to make the overdrive frequency (area cost, possibly
  infeasible);
- sign off at a *high* V_od and the elevated-stress residency
  accelerates BTI aging and burns power (lifetime energy cost).

``optimize_overdrive_signoff`` sweeps candidate rails, closes a fresh
copy of the design against each overdrive corner (aged by the shift that
rail itself would cause over life — the chicken-egg again), verifies the
nominal mode still closes, and scores area + lifetime power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.aging.bti import BtiModel
from repro.aging.signoff import greedy_upsize_closure
from repro.errors import SignoffError
from repro.liberty import LibraryCondition, make_library
from repro.netlist.design import Design
from repro.parasitics.synthesis import ParasiticExtractor
from repro.power.models import design_power
from repro.sta import STA, Constraints


@dataclass
class OverdriveOutcome:
    """One candidate overdrive rail's implementation result."""

    v_od: float
    closed_overdrive: bool
    closed_nominal: bool
    area: float
    lifetime_power: float  # residency-weighted, mW
    eol_shift_mv: float

    @property
    def feasible(self) -> bool:
        return self.closed_overdrive and self.closed_nominal

    def cost(self, area_ref: float, power_ref: float,
             area_weight: float = 0.5) -> float:
        """Normalized scalar cost (lower is better)."""
        return (
            area_weight * self.area / area_ref
            + (1.0 - area_weight) * self.lifetime_power / power_ref
        )


def evaluate_overdrive_rail(
    design: Design,
    v_od: float,
    nominal_constraints: Constraints,
    overdrive_constraints: Constraints,
    v_nominal: float = 0.8,
    od_residency: float = 0.2,
    years: float = 10.0,
    temp_c: float = 105.0,
    bti: BtiModel = BtiModel(),
    activity: float = 0.15,
    flavors: tuple = ("lvt", "svt", "hvt"),
) -> OverdriveOutcome:
    """Implement and score one overdrive-rail choice (mutates ``design``)."""
    # End-of-life shift under the residency-weighted stress profile.
    eol_shift = bti.accumulate(
        [
            (years * od_residency, v_od),
            (years * (1.0 - od_residency), v_nominal),
        ],
        temp_c=temp_c,
    )
    od_lib = make_library(
        LibraryCondition(vdd=v_od, temp_c=temp_c, vt_shift_aging=eol_shift),
        flavors=flavors,
    )
    closed_od = greedy_upsize_closure(design, od_lib, overdrive_constraints)

    nom_lib = make_library(
        LibraryCondition(vdd=v_nominal, temp_c=temp_c,
                         vt_shift_aging=eol_shift),
        flavors=flavors,
    )
    nom_sta = STA(design, nom_lib, nominal_constraints)
    closed_nom = nom_sta.run().wns("setup") >= 0.0

    def mode_power(lib, constraints) -> float:
        sta = STA(design, lib, constraints)
        extractor = ParasiticExtractor(design, lib, sta.stack,
                                       sta.beol_corner, temp_c=temp_c)
        return design_power(
            design, lib, extractor, constraints.the_clock().period,
            activity=activity,
        ).total

    power = (
        od_residency * mode_power(od_lib, overdrive_constraints)
        + (1.0 - od_residency) * mode_power(nom_lib, nominal_constraints)
    )
    return OverdriveOutcome(
        v_od=v_od,
        closed_overdrive=closed_od,
        closed_nominal=closed_nom,
        area=design.total_area(od_lib),
        lifetime_power=power,
        eol_shift_mv=eol_shift * 1000.0,
    )


def optimize_overdrive_signoff(
    design_factory: Callable[[], Design],
    nominal_period: float,
    overdrive_period: float,
    v_candidates: Sequence[float] = (0.84, 0.88, 0.92, 0.96, 1.00),
    area_weight: float = 0.5,
    **kwargs,
) -> List[OverdriveOutcome]:
    """Sweep overdrive rails; the caller picks with :func:`best_outcome`.

    Each candidate implements a *fresh* copy of the design. The overdrive
    mode reuses the nominal constraint structure with the faster clock.
    """
    nominal_constraints = Constraints.single_clock(nominal_period)
    overdrive_constraints = Constraints.single_clock(overdrive_period)
    outcomes: List[OverdriveOutcome] = []
    for v_od in v_candidates:
        design = design_factory()
        outcomes.append(
            evaluate_overdrive_rail(
                design, v_od, nominal_constraints, overdrive_constraints,
                **kwargs,
            )
        )
    return outcomes


def best_outcome(outcomes: Sequence[OverdriveOutcome],
                 area_weight: float = 0.5) -> OverdriveOutcome:
    """Lowest-cost feasible rail; raises when none closes both modes."""
    feasible = [o for o in outcomes if o.feasible]
    if not feasible:
        raise SignoffError("no overdrive rail closes both modes")
    area_ref = min(o.area for o in feasible)
    power_ref = min(o.lifetime_power for o in feasible)
    return min(feasible,
               key=lambda o: o.cost(area_ref, power_ref, area_weight))
