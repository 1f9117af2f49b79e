"""SADP/SAQP line-CD variance: the Fig 5(c) formulas, implemented literally.

In SID-type (spacer-is-dielectric) self-aligned double patterning, a wire
edge can be defined by a mandrel edge, a spacer edge or a block (cut-mask)
edge, and the CD variance of the wire depends on which combination formed
it:

- case I   — both edges from mandrel edges:      sigma^2 = sigma_M^2
- case II  — both edges from spacer edges:       sigma^2 = sigma_M^2 + 2 sigma_S^2
- case III — mandrel edge + block edge:          sigma^2 = (0.5 sigma_M)^2
              + sigma_MB^2 + (0.5 sigma_B)^2
- case IV  — spacer edge + block edge:           sigma^2 = (0.5 sigma_M)^2
              + sigma_S^2 + sigma_MB^2 + (0.5 sigma_B)^2

(sigma_M: mandrel CD, sigma_S: spacer thickness, sigma_B: block CD,
sigma_MB: mandrel-to-block overlay.)
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Dict, List

from repro.errors import CornerError


class PatterningCase(enum.Enum):
    """Which process edges define the two sides of a wire segment."""

    MANDREL_MANDREL = "i"
    SPACER_SPACER = "ii"
    MANDREL_BLOCK = "iii"
    SPACER_BLOCK = "iv"


@dataclass(frozen=True)
class SadpSigmas:
    """Process-step standard deviations, nm."""

    mandrel: float = 1.0
    spacer: float = 0.8
    block: float = 1.5
    mandrel_block_overlay: float = 1.2

    def __post_init__(self):
        for field_name in ("mandrel", "spacer", "block", "mandrel_block_overlay"):
            if getattr(self, field_name) < 0:
                raise CornerError(f"sigma {field_name} must be non-negative")


def line_cd_variance(case: PatterningCase, s: SadpSigmas) -> float:
    """CD variance (nm^2) of a wire formed by the given patterning case."""
    if case is PatterningCase.MANDREL_MANDREL:
        return s.mandrel**2
    if case is PatterningCase.SPACER_SPACER:
        return s.mandrel**2 + 2.0 * s.spacer**2
    if case is PatterningCase.MANDREL_BLOCK:
        return (0.5 * s.mandrel) ** 2 + s.mandrel_block_overlay**2 + (0.5 * s.block) ** 2
    if case is PatterningCase.SPACER_BLOCK:
        return (
            (0.5 * s.mandrel) ** 2
            + s.spacer**2
            + s.mandrel_block_overlay**2
            + (0.5 * s.block) ** 2
        )
    raise CornerError(f"unknown patterning case {case!r}")


def line_cd_sigma(case: PatterningCase, s: SadpSigmas) -> float:
    """CD standard deviation (nm) for a patterning case."""
    return math.sqrt(line_cd_variance(case, s))


def all_case_sigmas(s: SadpSigmas) -> Dict[PatterningCase, float]:
    """Sigma for every case — the Fig 5(c) table."""
    return {case: line_cd_sigma(case, s) for case in PatterningCase}


def assign_cases(n_segments: int, seed: int = 0,
                 cut_fraction: float = 0.3) -> List[PatterningCase]:
    """Deterministic SID-SADP case assignment for a row of wire segments.

    Pure SADP alternates mandrel-defined and spacer-defined wires (cases I
    and II); segments whose line-end falls under a cut mask (a
    ``cut_fraction`` of them) get the corresponding block-edge case
    (III / IV). This mirrors how a colorer would classify a routed track.
    """
    if not 0.0 <= cut_fraction <= 1.0:
        raise CornerError("cut_fraction must be in [0, 1]")
    rng = random.Random(seed)
    cases: List[PatterningCase] = []
    for i in range(n_segments):
        mandrel_defined = i % 2 == 0
        cut = rng.random() < cut_fraction
        if mandrel_defined:
            cases.append(
                PatterningCase.MANDREL_BLOCK if cut
                else PatterningCase.MANDREL_MANDREL
            )
        else:
            cases.append(
                PatterningCase.SPACER_BLOCK if cut
                else PatterningCase.SPACER_SPACER
            )
    return cases


def cd_sigma_to_rc_sensitivity(
    cd_sigma_nm: float, nominal_width_nm: float
) -> Dict[str, float]:
    """First-order relative R and C sigmas from a CD sigma.

    A wider wire has proportionally lower resistance (``dR/R = -dW/W``)
    and, to first order, higher coupling capacitance to its neighbours
    (spacing shrinks as width grows at fixed pitch): ``dCc/Cc = +dW/S``
    with spacing ~= width at a 50% duty. Ground capacitance is far less
    sensitive (fringe-dominated); we use a 0.3 factor.
    """
    if nominal_width_nm <= 0:
        raise CornerError("nominal width must be positive")
    rel = cd_sigma_nm / nominal_width_nm
    return {
        "r_rel_sigma": rel,
        "c_coupling_rel_sigma": rel,
        "c_ground_rel_sigma": 0.3 * rel,
    }


def segment_population_rc_sigmas(
    n_segments: int,
    s: SadpSigmas,
    nominal_width_nm: float,
    seed: int = 0,
    cut_fraction: float = 0.3,
) -> List[Dict[str, float]]:
    """Per-segment RC sigmas for a track population — the bimodal (by
    patterning case) distribution that makes SADP layers first-class
    citizens in variation signoff."""
    cases = assign_cases(n_segments, seed=seed, cut_fraction=cut_fraction)
    return [
        dict(
            case=case.value,
            **cd_sigma_to_rc_sensitivity(line_cd_sigma(case, s), nominal_width_nm),
        )
        for case in cases
    ]
