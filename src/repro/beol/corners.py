"""BEOL corner definitions and the corner "super-explosion".

Conventional BEOL corners (CBCs) apply one worst/best condition to *every*
layer simultaneously: C-worst (Cw), C-best (Cb), coupling-C-worst (Ccw),
RC-worst (RCw), RC-best (RCb), and typical. Section 3.2 of the paper (and
[Chan, Dobre, Kahng, ICCD'14]) points out the pessimism of this
homogeneity, since per-layer variations are not fully correlated — and
Section 2.3 counts the combinatorial cost of refusing the homogeneity:
independent per-layer corners explode as (choices)^(layers).

This module provides both: homogeneous CBCs (with multi-patterned layers
taking proportionally wider excursions) and the counting/pruning helpers
for the explosion experiment, plus :func:`tightened_corner` — the TBC
transform that scales a corner's excursions toward typical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.errors import CornerError
from repro.beol.stack import BeolStack


@dataclass(frozen=True)
class LayerScales:
    """Multipliers on a layer's nominal R / ground-C / coupling-C."""

    r: float = 1.0
    c_ground: float = 1.0
    c_coupling: float = 1.0

    def tightened(self, factor: float) -> "LayerScales":
        """Pull every multiplier toward 1.0 by ``factor`` (0 = typical,
        1 = unchanged)."""
        return LayerScales(
            r=1.0 + factor * (self.r - 1.0),
            c_ground=1.0 + factor * (self.c_ground - 1.0),
            c_coupling=1.0 + factor * (self.c_coupling - 1.0),
        )


@dataclass(frozen=True)
class BeolCorner:
    """A concrete extraction corner: per-layer scale factors."""

    name: str
    scales: Tuple[Tuple[str, LayerScales], ...]  # (layer name, scales)

    def layer_scales(self, layer_name: str) -> LayerScales:
        for name, s in self.scales:
            if name == layer_name:
                return s
        raise CornerError(f"corner {self.name} has no layer {layer_name!r}")


#: Base (single-patterned) excursions for each conventional corner family.
#: Physically: a wide/thick wire (Cw) has more capacitance and less
#: resistance; a narrow wire (Cb/RCw) the reverse.
_CBC_BASE: Dict[str, LayerScales] = {
    "typ": LayerScales(1.0, 1.0, 1.0),
    "cw": LayerScales(0.94, 1.14, 1.18),
    "cb": LayerScales(1.06, 0.86, 0.84),
    "ccw": LayerScales(0.98, 1.04, 1.30),
    "ccb": LayerScales(1.02, 0.98, 0.74),
    "rcw": LayerScales(1.22, 1.04, 1.06),
    "rcb": LayerScales(0.80, 0.96, 0.94),
}


def _scale_excursion(base: LayerScales, factor: float) -> LayerScales:
    """Widen a corner excursion by ``factor`` (multi-patterning penalty)."""
    return LayerScales(
        r=1.0 + factor * (base.r - 1.0),
        c_ground=1.0 + factor * (base.c_ground - 1.0),
        c_coupling=1.0 + factor * (base.c_coupling - 1.0),
    )


def conventional_corners(stack: BeolStack) -> Dict[str, BeolCorner]:
    """The homogeneous CBC set for a stack.

    Every layer gets the same corner family, but multi-patterned layers
    take wider excursions (their ``variability_factor``).
    """
    corners = {}
    for name, base in _CBC_BASE.items():
        scales = tuple(
            (layer.name, _scale_excursion(base, layer.variability_factor))
            for layer in stack.layers
        )
        corners[name] = BeolCorner(name=name, scales=scales)
    return corners


def tightened_corner(corner: BeolCorner, factor: float,
                     name: str = "") -> BeolCorner:
    """A tightened BEOL corner (TBC): excursions scaled toward typical.

    ``factor`` in [0, 1]: 1.0 returns the corner unchanged, 0.0 returns
    typical. [Chan-Dobre-Kahng ICCD'14] signs off TBC-safe paths at such
    corners to recover the pessimism quantified by the alpha metric
    (:mod:`repro.core.tbc`).
    """
    if not 0.0 <= factor <= 1.0:
        raise CornerError(f"tightening factor must be in [0, 1], got {factor}")
    return BeolCorner(
        name=name or f"{corner.name}_tbc{int(round(factor * 100))}",
        scales=tuple(
            (layer, s.tightened(factor)) for layer, s in corner.scales
        ),
    )


def per_layer_corner_space(
    stack: BeolStack, families: Iterable[str] = ("typ", "cw", "cb", "rcw", "rcb")
) -> int:
    """Size of the heterogeneous per-layer corner space: len(families) per
    multi-patterned layer (single-patterned layers track together, a common
    simplification), times the families of the correlated single-patterned
    group."""
    families = list(families)
    n_mp = len(stack.multi_patterned_layers())
    return len(families) ** n_mp * len(families)


def corner_explosion_count(
    n_modes: int,
    n_voltage_domains: int,
    stack: BeolStack,
    beol_families: int = 5,
    temperatures: int = 3,
) -> Dict[str, int]:
    """The Section 2.3 counting exercise: scenario count components and
    their product, for homogeneous vs per-layer BEOL corner handling."""
    homogeneous = n_modes * n_voltage_domains * temperatures * beol_families
    per_layer = (
        n_modes
        * n_voltage_domains
        * temperatures
        * per_layer_corner_space(
            stack, families=["f"] * beol_families
        )
    )
    return {
        "modes": n_modes,
        "voltage_domains": n_voltage_domains,
        "temperatures": temperatures,
        "beol_homogeneous": beol_families,
        "scenarios_homogeneous": homogeneous,
        "scenarios_per_layer": per_layer,
    }


def dominant_corner_for_path(gate_delay_fraction: float) -> str:
    """Section 2.3's gate-wire balance rule of thumb: gate-dominated paths
    (low-voltage, HVT, short wires) are worst at Cw; wire-dominated paths
    (high-voltage, long wires) are worst at RCw."""
    if not 0.0 <= gate_delay_fraction <= 1.0:
        raise CornerError("gate_delay_fraction must be in [0, 1]")
    return "cw" if gate_delay_fraction >= 0.7 else "rcw"
