"""BEOL metal-stack definition.

A 16nm-class stack: thin, highly resistive double-patterned lower layers
(the "rise of the MOL and BEOL"), intermediate single-patterned layers,
and thick low-resistance upper layers for clocks and long routes. Per-um R
and C values are representative rather than foundry-exact; what matters
for the paper's experiments is the R-vs-C contrast between layers and the
larger variability of multi-patterned layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import CornerError

#: Copper-like resistance temperature coefficient, per degree C.
R_TEMP_COEFF = 0.0035


@dataclass(frozen=True)
class MetalLayer:
    """One routing layer.

    Attributes:
        name: layer name ("M2").
        r_per_um: wire resistance, kohm per um, at 25 C.
        c_ground_per_um: grounded capacitance, fF per um.
        c_coupling_per_um: coupling capacitance to neighbours, fF per um.
        patterning: "single", "sadp" or "saqp" — multi-patterned layers
            carry proportionally wider corner excursions.
        pitch: routing pitch, um (used by detailed-route-style estimates).
    """

    name: str
    r_per_um: float
    c_ground_per_um: float
    c_coupling_per_um: float
    patterning: str = "single"
    pitch: float = 0.1

    @property
    def is_multi_patterned(self) -> bool:
        return self.patterning in ("sadp", "saqp")

    @property
    def variability_factor(self) -> float:
        """Relative corner-excursion multiplier for this layer."""
        return {"single": 1.0, "sadp": 1.4, "saqp": 1.8}[self.patterning]

    def r_at(self, temp_c: float) -> float:
        """Temperature-adjusted resistance per um (metal R always rises
        with temperature — half of the gate-wire-balance story)."""
        return self.r_per_um * (1.0 + R_TEMP_COEFF * (temp_c - 25.0))


@dataclass(frozen=True)
class BeolStack:
    """An ordered metal stack (lowest layer first)."""

    name: str
    layers: Tuple[MetalLayer, ...]

    def layer(self, name: str) -> MetalLayer:
        for l in self.layers:
            if l.name == name:
                return l
        raise CornerError(f"stack {self.name} has no layer {name!r}")

    def multi_patterned_layers(self) -> List[MetalLayer]:
        return [l for l in self.layers if l.is_multi_patterned]

    def layer_for_route(self, length_um: float, ndr: bool = False) -> MetalLayer:
        """Routing-layer assignment by net length: short nets on thin
        lower metal, long nets promoted upward; NDR promotes one extra
        level (the closure trick of Fig 1's fix list)."""
        if length_um < 15.0:
            idx = 1
        elif length_um < 60.0:
            idx = min(3, len(self.layers) - 1)
        else:
            idx = min(5, len(self.layers) - 1)
        if ndr:
            idx = min(idx + 1, len(self.layers) - 1)
        return self.layers[idx]


def default_stack() -> BeolStack:
    """The framework's reference 8-layer 16nm-class stack."""
    return BeolStack(
        name="repro16_8lm",
        layers=(
            MetalLayer("M1", 0.025, 0.10, 0.10, patterning="sadp", pitch=0.064),
            MetalLayer("M2", 0.020, 0.10, 0.11, patterning="sadp", pitch=0.064),
            MetalLayer("M3", 0.012, 0.11, 0.10, patterning="sadp", pitch=0.080),
            MetalLayer("M4", 0.006, 0.12, 0.09, patterning="single", pitch=0.100),
            MetalLayer("M5", 0.004, 0.13, 0.08, patterning="single", pitch=0.120),
            MetalLayer("M6", 0.002, 0.15, 0.07, patterning="single", pitch=0.200),
            MetalLayer("M7", 0.0012, 0.17, 0.06, patterning="single", pitch=0.400),
            MetalLayer("M8", 0.0008, 0.18, 0.05, patterning="single", pitch=0.800),
        ),
    )
