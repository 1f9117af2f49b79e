"""Tightened BEOL corners: the Fig 8 alpha pessimism metric.

Conventional BEOL corners (CBCs) push *every* layer to its worst case
simultaneously; real per-layer variations are not fully correlated, so
the statistical 3-sigma path-delay increment is smaller than the corner's
fully-correlated excursion. [Chan-Dobre-Kahng ICCD'14] quantifies the
pessimism per path as

    alpha_j = 3 sigma_j / (d_j(corner) - d_j(typ))

(small alpha = much pessimism) and signs off paths whose delta-delay at
both Cw and RCw stays below thresholds (A_cw, A_rcw) at *tightened*
corners instead.

Here sigma_j comes from per-layer-uncorrelated RC variation: each wire
stage's delay sigma is its wire delay times the layer's relative sigma
(multi-patterned layers higher), accumulated in RSS along the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import math

from repro.beol.corners import BeolCorner, conventional_corners, tightened_corner
from repro.beol.stack import BeolStack, default_stack
from repro.netlist.design import Design, PinRef
from repro.liberty.library import Library
from repro.sta.analysis import STA
from repro.sta.constraints import Constraints

#: Relative 1-sigma of a wire stage's delay, by patterning class.
LAYER_REL_SIGMA = {"single": 0.04, "sadp": 0.08, "saqp": 0.12}


@dataclass
class PathCornerStats:
    """Per-endpoint data for the alpha analysis."""

    endpoint: PinRef
    arrival_typ: float
    delta_cw: float  # arrival(cw) - arrival(typ)
    delta_rcw: float
    sigma3: float  # 3x RSS wire-delay sigma along the typical worst path

    def alpha(self, corner: str) -> float:
        """alpha at "cw" or "rcw"; infinite when the corner moved nothing."""
        delta = self.delta_cw if corner == "cw" else self.delta_rcw
        if delta <= 1e-9:
            return math.inf
        return self.sigma3 / delta

    @property
    def dominant_corner(self) -> str:
        return "cw" if self.delta_cw >= self.delta_rcw else "rcw"


def path_wire_sigma(sta, path, stack: BeolStack) -> float:
    """RSS of per-stage wire-delay sigmas along a path, ps (1 sigma)."""
    var = 0.0
    for point in path.points:
        if point.kind != "net" or point.ref.is_port:
            continue
        inst = sta.design.instance(point.ref.instance)
        net_name = inst.net_of(point.ref.pin)
        para = sta.parasitics.extract(net_name)
        layer = stack.layer(para.layer_name)
        rel = LAYER_REL_SIGMA[layer.patterning]
        var += (point.increment * rel) ** 2
    return math.sqrt(var)


def alpha_analysis(
    design: Design,
    library: Library,
    constraints: Constraints,
    stack: Optional[BeolStack] = None,
    n_endpoints: int = 40,
) -> List[PathCornerStats]:
    """Run STA at typ/Cw/RCw and compute the Fig 8 statistics.

    Endpoints are the N worst setup endpoints at typical.
    """
    stack = stack or default_stack()
    corners = conventional_corners(stack)
    runs: Dict[str, STA] = {}
    for name in ("typ", "cw", "rcw"):
        sta = STA(design, library, constraints, stack=stack,
                  beol_corner=corners[name])
        sta.report = sta.run()
        runs[name] = sta

    typ = runs["typ"]
    arrivals: Dict[str, Dict[PinRef, float]] = {}
    for name, sta in runs.items():
        arrivals[name] = {
            e.endpoint: e.arrival for e in sta.report.endpoints("setup")
        }

    out: List[PathCornerStats] = []
    for endpoint in typ.report.endpoints("setup")[:n_endpoints]:
        ep = endpoint.endpoint
        if ep not in arrivals["cw"] or ep not in arrivals["rcw"]:
            continue
        path = typ.worst_path(endpoint)
        sigma = path_wire_sigma(typ, path, stack)
        out.append(
            PathCornerStats(
                endpoint=ep,
                arrival_typ=endpoint.arrival,
                delta_cw=arrivals["cw"][ep] - endpoint.arrival,
                delta_rcw=arrivals["rcw"][ep] - endpoint.arrival,
                sigma3=3.0 * sigma,
            )
        )
    return out


def classify_tbc_safe(
    stats: Sequence[PathCornerStats],
    a_cw: float,
    a_rcw: float,
) -> Tuple[List[PathCornerStats], List[PathCornerStats]]:
    """Split paths into (tbc_safe, must_use_cbc) by delta-delay thresholds.

    A path is TBC-safe when its *relative* delta-delay at both corners
    stays below the thresholds (the blue-shaded region of Fig 8(b)):
    small corner excursions mean the homogeneous corner was mostly
    pessimism for this path.
    """
    safe, unsafe = [], []
    for s in stats:
        rel_cw = s.delta_cw / max(s.arrival_typ, 1e-9)
        rel_rcw = s.delta_rcw / max(s.arrival_typ, 1e-9)
        if rel_cw <= a_cw and rel_rcw <= a_rcw:
            safe.append(s)
        else:
            unsafe.append(s)
    return safe, unsafe


@dataclass
class TbcSignoffResult:
    """Violation counts with conventional vs tightened corners."""

    violations_cbc: int
    violations_tbc: int
    tbc_safe_paths: int
    total_paths: int

    @property
    def violations_removed(self) -> int:
        return self.violations_cbc - self.violations_tbc


def tbc_signoff(
    design: Design,
    library: Library,
    constraints: Constraints,
    stack: Optional[BeolStack] = None,
    tighten_factor: float = 0.5,
    a_cw: float = 0.05,
    a_rcw: float = 0.05,
    corner_name: str = "cw",
    n_endpoints: int = 100,
) -> TbcSignoffResult:
    """Compare setup violations under the CBC vs the TBC methodology.

    TBC-safe endpoints (classified at thresholds ``a_cw``/``a_rcw``) are
    signed off at the tightened corner; the rest keep the conventional
    corner — mirroring the ICCD'14 flow's reduction in fix/closure effort.
    """
    stack = stack or default_stack()
    corners = conventional_corners(stack)
    cbc = corners[corner_name]
    tbc = tightened_corner(cbc, tighten_factor)

    stats = alpha_analysis(design, library, constraints, stack=stack,
                           n_endpoints=n_endpoints)
    safe, _ = classify_tbc_safe(stats, a_cw, a_rcw)
    safe_set = {s.endpoint for s in safe}

    def violations(corner: BeolCorner, endpoints=None) -> Dict[PinRef, float]:
        sta = STA(design, library, constraints, stack=stack,
                  beol_corner=corner)
        report = sta.run()
        return {
            e.endpoint: e.slack
            for e in report.endpoints("setup")
            if e.violated and (endpoints is None or e.endpoint in endpoints)
        }

    cbc_viol = violations(cbc)
    tbc_viol_safe = violations(tbc, endpoints=safe_set)
    # Unsafe endpoints keep the conventional corner.
    mixed = {ep for ep in cbc_viol if ep not in safe_set} | set(tbc_viol_safe)
    return TbcSignoffResult(
        violations_cbc=len(cbc_viol),
        violations_tbc=len(mixed),
        tbc_safe_paths=len(safe),
        total_paths=len(stats),
    )
