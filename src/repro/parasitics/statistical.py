"""Statistical interconnect (the revival of "Sensitivity SPEF").

Section 3.1 notes that SSPEF "seems to have recently dropped by the
wayside, leaving BEOL variations as a major hole in signoff enablement",
and Section 4 predicts that "statistical SPEF or similar will be revived"
once BEOL becomes a first-class citizen. This module is that revival for
our stack: each net's extracted parasitics are annotated with relative
R and C sigmas derived from its routing layer's patterning class (through
the SADP CD-sigma model). An annotator is the wire source of the
canonical SSTA engine (``run_ssta(..., wires=annotator)`` in
:mod:`repro.sta.ssta`): each net edge's wire delay then carries its
nominal delay times the layer's relative wire-delay sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.beol.sadp import (
    PatterningCase,
    SadpSigmas,
    cd_sigma_to_rc_sensitivity,
    line_cd_sigma,
)
from repro.beol.stack import BeolStack, MetalLayer
from repro.errors import CornerError
from repro.netlist.design import PinRef
from repro.parasitics.synthesis import ParasiticExtractor

#: Representative nominal line widths per patterning class, nm.
_NOMINAL_WIDTH_NM = {"single": 50.0, "sadp": 28.0, "saqp": 18.0}
#: Representative patterning case per class (the middle of the Fig 5(c)
#: menu: spacer-defined for SADP; block-edge for SAQP).
_REPRESENTATIVE_CASE = {
    "single": None,
    "sadp": PatterningCase.SPACER_SPACER,
    "saqp": PatterningCase.SPACER_BLOCK,
}
#: Single-patterned layers still vary (CMP, litho), just less.
_SINGLE_PATTERN_REL_SIGMA = 0.03


@dataclass(frozen=True)
class RcSigmas:
    """Relative (1-sigma) R and C variations of one net's wiring."""

    r_rel: float
    c_rel: float

    @property
    def wire_delay_rel(self) -> float:
        """Relative sigma of an R*C product with independent R and C
        variations: sqrt(sr^2 + sc^2) to first order."""
        return math.hypot(self.r_rel, self.c_rel)


def layer_rc_sigmas(layer: MetalLayer,
                    process: SadpSigmas = SadpSigmas()) -> RcSigmas:
    """Relative R/C sigmas for a routing layer from its patterning."""
    case = _REPRESENTATIVE_CASE[layer.patterning]
    if case is None:
        return RcSigmas(r_rel=_SINGLE_PATTERN_REL_SIGMA,
                        c_rel=0.5 * _SINGLE_PATTERN_REL_SIGMA)
    width = _NOMINAL_WIDTH_NM[layer.patterning]
    sens = cd_sigma_to_rc_sensitivity(line_cd_sigma(case, process), width)
    # Combine ground and coupling C sensitivity with a 50/50 split.
    c_rel = 0.5 * (sens["c_ground_rel_sigma"] + sens["c_coupling_rel_sigma"])
    return RcSigmas(r_rel=sens["r_rel_sigma"], c_rel=c_rel)


class StatisticalAnnotator:
    """Annotates an extractor's nets with statistical wire-delay sigmas."""

    def __init__(self, extractor: ParasiticExtractor, stack: BeolStack,
                 process: SadpSigmas = SadpSigmas()):
        self.extractor = extractor
        self.stack = stack
        self.process = process
        self._cache: Dict[str, RcSigmas] = {}

    def net_sigmas(self, net_name: str) -> RcSigmas:
        if net_name not in self._cache:
            para = self.extractor.extract(net_name)
            layer = self.stack.layer(para.layer_name)
            self._cache[net_name] = layer_rc_sigmas(layer, self.process)
        return self._cache[net_name]

    def wire_delay_sigma(self, net_name: str, sink: PinRef,
                         sink_pin_cap: float) -> float:
        """Absolute 1-sigma of the wire delay to a sink, ps."""
        para = self.extractor.extract(net_name)
        nominal = para.wire_delay(sink, sink_pin_cap)
        return nominal * self.net_sigmas(net_name).wire_delay_rel

    def all_wire_sigmas(self) -> Dict[str, float]:
        """Per-net representative wire-delay sigma (worst sink), ps —
        the payload a statistical SPEF file would carry."""
        out: Dict[str, float] = {}
        for net_name, net in self.extractor.design.nets.items():
            if not net.loads or net.driver is None:
                continue
            worst = 0.0
            for sink in net.loads:
                worst = max(worst, self.wire_delay_sigma(
                    net_name, sink, self.extractor.sink_cap(sink)))
            out[net_name] = worst
        return out


def write_statistical_spef(design_name: str,
                           annotator: StatisticalAnnotator) -> str:
    """Serialize per-net statistical annotations (SSPEF-lite)."""
    lines = [f"*SSPEF repro-lite", f"*DESIGN {design_name}"]
    for net_name in sorted(annotator.extractor.design.nets):
        net = annotator.extractor.design.nets[net_name]
        if net.driver is None or not net.loads:
            continue
        s = annotator.net_sigmas(net_name)
        lines.append(
            f"*S_NET {net_name} {s.r_rel!r} {s.c_rel!r}"
        )
    return "\n".join(lines) + "\n"


def parse_statistical_spef(text: str) -> Dict[str, RcSigmas]:
    """Parse SSPEF-lite text back to per-net relative sigmas."""
    out: Dict[str, RcSigmas] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("*SSPEF") or line.startswith("*DESIGN"):
            continue
        fields = line.split()
        if fields[0] != "*S_NET":
            raise CornerError(f"unknown SSPEF-lite tag {fields[0]!r}")
        try:
            out[fields[1]] = RcSigmas(r_rel=float(fields[2]),
                                      c_rel=float(fields[3]))
        except (IndexError, ValueError) as exc:
            raise CornerError(f"malformed SSPEF-lite line {line!r}") from exc
    return out
