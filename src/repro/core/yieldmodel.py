"""Parametric timing yield: the "old goal post" vs the new game.

Footnote 7 (Lutkemeyer): "while the game is indeed new (slacks now
reported at a confidence tail of the slack distribution, affording an
approximate statistical analysis), the goalposts are actually 'old' in
that STA tools and timing closure still center on absolute slack
violations (as opposed to yield losses). Unfortunately, sigmas are
unstable..."

This module computes what the new goal post *would* be: parametric
timing yield read off the sampled slack matrices of a canonical SSTA run
(:class:`repro.sta.ssta.SstaRun`) — the fraction of sampled dies on
which every check passes, with the cross-endpoint correlation the shared
variation sources carry — plus the sensitivity of that yield to sigma
error, the instability that keeps the old goal post alive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import SignoffError
from repro.sta.algebra import VariationModel
from repro.sta.analysis import STA
from repro.sta.ssta import SstaRun, run_ssta
from repro.variation.derate import flat_ocv_derates


def _scaled(slacks: np.ndarray, endpoints, sigma_scale: float) -> np.ndarray:
    """Slack samples with each deviation from its canonical mean scaled."""
    if sigma_scale == 1.0:
        return slacks
    means = np.array([e.mean for e in endpoints])
    return means + sigma_scale * (slacks - means)


def design_yield(run: SstaRun, sigma_scale: float = 1.0) -> float:
    """Parametric timing yield of the whole design.

    The fraction of ``run``'s sampled dies on which every setup, output
    and hold check passes. ``sigma_scale`` scales each endpoint sample's
    deviation from its canonical mean — every sigma at once, the knob
    for the "sigmas are unstable" sensitivity study. At 1.0 this is
    ``run.timing_yield()``.
    """
    if not run.endpoints and not run.hold_endpoints:
        raise SignoffError("SSTA run has no endpoints")
    setup = _scaled(run.setup_slacks, run.endpoints, sigma_scale)
    hold = _scaled(run.hold_slacks, run.hold_endpoints, sigma_scale)
    ok = (setup >= 0.0).all(axis=1) & (hold >= 0.0).all(axis=1)
    return float(ok.mean())


@dataclass
class GoalpostComparison:
    """Old goal post (corner slack) vs new goal post (yield) at one
    operating point."""

    period: float
    corner_wns: float  # derated deterministic WNS
    yield_estimate: float
    yield_low_sigma: float  # yield if sigmas are 20% larger than believed
    yield_high_sigma: float  # ... 20% smaller

    @property
    def corner_passes(self) -> bool:
        return self.corner_wns >= 0.0

    @property
    def yield_passes(self) -> bool:
        return self.yield_estimate >= 0.99


def goalpost_sweep(
    design,
    library,
    make_constraints,
    periods: List[float],
    derate_percent: float = 0.08,
    global_sigma_frac: float = 0.3,
) -> List[GoalpostComparison]:
    """Compare the two goal posts across a clock-period sweep.

    ``make_constraints(period)`` must return a constraint set. The old
    goal post runs deterministic STA with a flat OCV derate; the new one
    runs canonical SSTA and reads the design yield, bracketing it with
    +/-20% sigma error (the instability that keeps the old post
    standing). ``global_sigma_frac`` of each arc's sigma rides on one
    die-wide source; the rest is private to the arc.
    """
    model = VariationModel(n_sources=1, rho=global_sigma_frac)
    out: List[GoalpostComparison] = []
    for period in periods:
        constraints = make_constraints(period)
        corner_sta = STA(design, library, constraints,
                         derates=flat_ocv_derates(derate_percent))
        corner_wns = corner_sta.run().wns("setup")

        run = run_ssta(design, library, constraints, model=model)
        out.append(
            GoalpostComparison(
                period=period,
                corner_wns=corner_wns,
                yield_estimate=design_yield(run),
                yield_low_sigma=design_yield(run, sigma_scale=1.2),
                yield_high_sigma=design_yield(run, sigma_scale=0.8),
            )
        )
    return out


def minimum_passing_period(comparisons: List[GoalpostComparison],
                           goalpost: str) -> Optional[float]:
    """Smallest period each methodology signs off."""
    passing = [
        c.period for c in comparisons
        if (c.corner_passes if goalpost == "corner" else c.yield_passes)
    ]
    return min(passing) if passing else None
