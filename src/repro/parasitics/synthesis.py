"""Per-net parasitic synthesis from placement geometry.

We have no router, so this module plays the role of a global-route-based
extractor: each net's length comes from its placement HPWL (with a
fanout-based floor for unplaced nets), a routing layer is assigned by
length, and a star RC topology is synthesized on that layer at a chosen
BEOL corner and temperature. NDR nets are promoted one layer and widened
(lower R, less coupling).

The resulting :class:`NetParasitics` answers the three questions STA asks:
the load the driver sees, the extra wire delay to each sink, and the slew
degradation along the wire — plus the coupling capacitance SI analysis
needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.beol.corners import BeolCorner
from repro.beol.stack import BeolStack
from repro.liberty.library import Library
from repro.netlist.design import Design, Net, PinRef
from repro.parasitics.rctree import RCTree

#: Wirelength floor for unplaced nets: base plus per-fanout term, um.
_UNPLACED_BASE = 4.0
_UNPLACED_PER_FANOUT = 3.0

#: NDR effect on the assigned layer's per-um parasitics.
_NDR_R_SCALE = 0.62
_NDR_CG_SCALE = 1.10
_NDR_CC_SCALE = 0.80


@dataclass
class NetParasitics:
    """Extracted parasitics for one net (star topology).

    Attributes:
        net_name: the net.
        layer_name: assigned routing layer.
        length: routed length estimate, um.
        wire_cap: total wire capacitance (ground + coupling*miller@1), fF.
        coupling_cap: total neighbour-coupling capacitance, fF.
        sink_resistance: per-sink path resistance from the driver, kohm.
        sink_wire_cap: per-sink local wire capacitance for delay calc, fF.
    """

    net_name: str
    layer_name: str
    length: float
    wire_cap: float
    coupling_cap: float
    sink_resistance: Dict[PinRef, float] = field(default_factory=dict)
    sink_wire_cap: Dict[PinRef, float] = field(default_factory=dict)

    def driver_load(self, pin_caps_total: float) -> float:
        """Total load presented to the driving pin, fF."""
        return self.wire_cap + pin_caps_total

    def wire_delay(self, sink: PinRef, sink_pin_cap: float) -> float:
        """Elmore-style extra delay from driver output to ``sink``, ps."""
        r = self.sink_resistance.get(sink, 0.0)
        c_local = self.sink_wire_cap.get(sink, 0.0)
        return r * (0.5 * c_local + sink_pin_cap)

    def slew_degradation(self, sink: PinRef, sink_pin_cap: float) -> float:
        """Extra slew accumulated along the wire, ps (PERI-like: about
        twice the wire delay)."""
        return 2.0 * self.wire_delay(sink, sink_pin_cap)


class ParasiticExtractor:
    """Synthesizes :class:`NetParasitics` for every net of a design."""

    def __init__(
        self,
        design: Design,
        library: Library,
        stack: BeolStack,
        corner: BeolCorner,
        temp_c: float = 25.0,
    ):
        self.design = design
        self.library = library
        self.stack = stack
        self.corner = corner
        self.temp_c = temp_c
        self._cache: Dict[str, NetParasitics] = {}

    def extract(self, net_name: str) -> NetParasitics:
        """Extract (and cache) one net."""
        if net_name not in self._cache:
            self._cache[net_name] = self._extract(self.design.get_net(net_name))
        return self._cache[net_name]

    def extract_all(self) -> Dict[str, NetParasitics]:
        for net_name in self.design.nets:
            self.extract(net_name)
        return dict(self._cache)

    def invalidate(self, net_name: Optional[str] = None) -> None:
        """Drop cached parasitics after a netlist edit."""
        if net_name is None:
            self._cache.clear()
        else:
            self._cache.pop(net_name, None)

    # ------------------------------------------------------------------ #

    def net_length(self, net: Net) -> float:
        """Routed-length estimate: placement HPWL with a fanout floor."""
        hpwl = self.design.net_hpwl(net.name)
        floor = _UNPLACED_BASE + _UNPLACED_PER_FANOUT * max(net.fanout - 1, 0)
        return max(hpwl, floor if net.fanout else 0.0)

    def _extract(self, net: Net) -> NetParasitics:
        length = self.net_length(net)
        layer = self.stack.layer_for_route(length, ndr=net.ndr)
        scales = self.corner.layer_scales(layer.name)

        r_per_um = layer.r_at(self.temp_c) * scales.r
        cg_per_um = layer.c_ground_per_um * scales.c_ground
        cc_per_um = layer.c_coupling_per_um * scales.c_coupling
        if net.ndr:
            r_per_um *= _NDR_R_SCALE
            cg_per_um *= _NDR_CG_SCALE
            cc_per_um *= _NDR_CC_SCALE

        coupling_cap = cc_per_um * length * 0.5  # half the run has neighbours
        wire_cap = cg_per_um * length + coupling_cap + net.extra_cap

        sinks = list(net.loads)
        result = NetParasitics(
            net_name=net.name,
            layer_name=layer.name,
            length=length,
            wire_cap=wire_cap,
            coupling_cap=coupling_cap,
        )
        if not sinks:
            return result
        # Star topology: a shared trunk of half the length, then branches
        # of increasing length to each sink (deterministic by sink order).
        trunk = 0.5 * length
        branch_total = length - trunk
        n = len(sinks)
        for k, sink in enumerate(sorted(sinks, key=str)):
            branch = branch_total * (k + 1) / n
            path = trunk + branch
            result.sink_resistance[sink] = r_per_um * path
            result.sink_wire_cap[sink] = (cg_per_um + 0.5 * cc_per_um) * path
        return result

    def rc_tree(self, net_name: str) -> RCTree:
        """A full RC tree for one net (trunk + branches), for moment-based
        delay studies; driver pin is the root."""
        net = self.design.get_net(net_name)
        para = self.extract(net_name)
        layer = self.stack.layer(para.layer_name)
        scales = self.corner.layer_scales(layer.name)
        r_per_um = layer.r_at(self.temp_c) * scales.r
        c_per_um = (
            layer.c_ground_per_um * scales.c_ground
            + 0.5 * layer.c_coupling_per_um * scales.c_coupling
        )
        if net.ndr:
            r_per_um *= _NDR_R_SCALE

        tree = RCTree(root="driver")
        trunk_len = 0.5 * para.length
        segments = 4
        prev = "driver"
        for i in range(segments):
            seg = trunk_len / segments
            node = tree.add_node(
                f"trunk{i}", prev, r_per_um * seg, c_per_um * seg
            )
            prev = node
        branch_total = para.length - trunk_len
        n = max(len(net.loads), 1)
        for k, sink in enumerate(sorted(net.loads, key=str)):
            seg = branch_total * (k + 1) / n
            node = tree.add_node(
                f"sink:{sink}", prev, r_per_um * seg, c_per_um * seg
            )
            tree.add_cap(node, self.sink_cap(sink))
        return tree

    def sink_cap(self, ref: PinRef) -> float:
        """The pin load a net sees at ``ref``, fF: the library pin cap of
        an instance pin, a nominal 2.0 fF external load at an output
        port. Every wire delay and driver load reads this one rule."""
        if ref.is_port:
            return 2.0
        inst = self.design.instance(ref.instance)
        cell = self.library.cell(inst.cell_name)
        return cell.pin(ref.pin).capacitance

    def pin_caps_total(self, net_name: str) -> float:
        net = self.design.get_net(net_name)
        return sum(self.sink_cap(ref) for ref in net.loads)
