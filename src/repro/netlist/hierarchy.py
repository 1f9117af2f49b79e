"""Hierarchical SoC construction: blocks stitched under a top level.

The paper's §4 closure lever "flat vs ETM-based/hierarchical analysis"
needs designs that actually *have* a hierarchy. This module provides:

- :func:`with_boundary_anchors` — rewrites a flat block so every data
  port meets the *anchored interface* discipline the ETM tabulator
  (:mod:`repro.sta.etm`) requires: each input port drives exactly one
  combinational anchor buffer placed at the block origin, and each
  output port is driven by one;
- :func:`feedthrough_block` — a block with pure input->output
  combinational channels plus a registered path (the ETM feedthrough
  test subject);
- :class:`HierarchicalDesign` — named block instances with origins and
  inter-block links, flattened to a plain :class:`Design` for reference
  flat analysis or abstracted to a stub-cell design by
  :mod:`repro.sta.hier`.

Flattening gives every block instance its own top-level clock port
``clk_<inst>`` and prefixes all nets/instances uniformly, which keeps
each internal net's parasitic tree (sink sort order, HPWL) identical to
the standalone block — the property that makes ETM-vs-flat agreement
exact rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import NetlistError
from repro.netlist.design import Design, PortDirection
from repro.netlist.generators import ROW_PITCH, _cell_name
from repro.sta.constraints import ClockSpec, Constraints


def with_boundary_anchors(
    design: Design,
    clock_ports: Tuple[str, ...] = ("clk",),
    flavor: str = "svt",
    size: float = 2.0,
) -> Design:
    """Splice anchor buffers onto every data port, in place.

    Input port nets are rerouted through an ``abuf_<port>`` at the block
    origin; output port nets through an ``obuf_<port>``. Anchors at the
    origin make the block's boundary geometry independent of its
    internals, so a stub cell placed at the same origin sees identical
    boundary nets.
    """
    clock_set = set(clock_ports)
    for port, direction in list(design.ports.items()):
        if port in clock_set:
            continue
        internal = f"{port}__a"
        if internal in design.nets:
            raise NetlistError(f"net {internal!r} already exists")
        moved = False
        for inst in design.instances.values():
            for pin, net in list(inst.connections.items()):
                if net == port:
                    inst.connections[pin] = internal
                    moved = True
        if not moved:
            continue
        if direction is PortDirection.INPUT:
            design.add_instance(
                f"abuf_{port}", _cell_name("buf", size, flavor),
                {"A": port, "Z": internal}, location=(0.0, 0.0),
            )
        else:
            design.add_instance(
                f"obuf_{port}", _cell_name("buf", size, flavor),
                {"A": internal, "Z": port}, location=(0.0, 0.0),
            )
    return design


def feedthrough_block(
    name: str = "feedthru",
    channels: int = 2,
    flavor: str = "svt",
) -> Design:
    """A block with pure combinational feedthroughs plus one registered
    path (so it still owns internal setup/hold checks)."""
    design = Design(name)
    design.add_port("clk", PortDirection.INPUT)
    for i in range(channels):
        p = design.add_port(f"ft_in{i}", PortDirection.INPUT)
        q = design.add_port(f"ft_out{i}", PortDirection.OUTPUT)
        design.add_instance(
            f"ftbuf{i}", _cell_name("buf", 2.0, flavor),
            {"A": p, "Z": q}, location=(0.0, 0.0),
        )
    d_in = design.add_port("d_in", PortDirection.INPUT)
    design.add_port("d_out", PortDirection.OUTPUT)
    design.add_instance(
        "abuf_d", _cell_name("buf", 2.0, flavor),
        {"A": d_in, "Z": "d__a"}, location=(0.0, 0.0),
    )
    design.add_instance(
        "ffd", _cell_name("dff", 1.0, flavor),
        {"D": "d__a", "CK": "clk", "Q": "rq"},
        location=(6.0, 2 * ROW_PITCH),
    )
    design.add_instance(
        "obuf_d", _cell_name("buf", 2.0, flavor),
        {"A": "rq", "Z": "d_out"}, location=(0.0, 0.0),
    )
    return design


@dataclass
class BlockInstance:
    """One placed block under the top level."""

    name: str
    design: Design
    origin: Tuple[float, float] = (0.0, 0.0)
    clock_port: str = "clk"


@dataclass
class Link:
    """One inter-block boundary net (src output -> dst input)."""

    src_block: str
    src_port: str
    dst_block: str
    dst_port: str


class HierarchicalDesign:
    """Named block instances, origins and inter-block links."""

    def __init__(self, name: str = "soc"):
        self.name = name
        self.blocks: Dict[str, BlockInstance] = {}
        self.links: List[Link] = []

    # ------------------------------------------------------------------ #
    # construction

    def add_block(
        self,
        name: str,
        design: Design,
        origin: Tuple[float, float] = (0.0, 0.0),
        clock_port: str = "clk",
    ) -> BlockInstance:
        if name in self.blocks:
            raise NetlistError(f"duplicate block instance {name!r}")
        if not name or "/" in name:
            raise NetlistError(f"bad block instance name {name!r}")
        if clock_port not in design.ports:
            raise NetlistError(
                f"block {design.name!r} has no clock port {clock_port!r}"
            )
        block = BlockInstance(name=name, design=design, origin=origin,
                              clock_port=clock_port)
        self.blocks[name] = block
        return block

    def connect(self, src_block: str, src_port: str,
                dst_block: str, dst_port: str) -> Link:
        src = self._block(src_block)
        dst = self._block(dst_block)
        if src.design.ports.get(src_port) is not PortDirection.OUTPUT:
            raise NetlistError(
                f"{src_block}.{src_port} is not an output port"
            )
        if dst.design.ports.get(dst_port) is not PortDirection.INPUT:
            raise NetlistError(
                f"{dst_block}.{dst_port} is not an input port"
            )
        if dst_port == dst.clock_port:
            raise NetlistError("cannot link into a clock port")
        for link in self.links:
            if link.dst_block == dst_block and link.dst_port == dst_port:
                raise NetlistError(
                    f"{dst_block}.{dst_port} is already driven"
                )
        link = Link(src_block, src_port, dst_block, dst_port)
        self.links.append(link)
        return link

    def _block(self, name: str) -> BlockInstance:
        try:
            return self.blocks[name]
        except KeyError:
            raise NetlistError(f"unknown block instance {name!r}") from None

    def free_outputs(self, block: str) -> List[str]:
        b = self._block(block)
        used = {(l.src_block, l.src_port) for l in self.links}
        return [p for p in b.design.output_ports()
                if (block, p) not in used]

    def free_inputs(self, block: str) -> List[str]:
        b = self._block(block)
        used = {(l.dst_block, l.dst_port) for l in self.links}
        return [p for p in b.design.input_ports()
                if p != b.clock_port and (block, p) not in used]

    # ------------------------------------------------------------------ #
    # derived views

    def boundary_nets(self) -> Dict[Tuple[str, str], str]:
        """(block, port) -> top-level net name, for every data port.

        Linked ports share the source's prefixed net; unlinked ports map
        to a same-named top-level port/net. Shared by :meth:`flatten`
        and the stub-design builder so both views wire identically.
        """
        net_of: Dict[Tuple[str, str], str] = {}
        for link in self.links:
            net = f"{link.src_block}_{link.src_port}"
            net_of[(link.src_block, link.src_port)] = net
            net_of[(link.dst_block, link.dst_port)] = net
        for name, block in self.blocks.items():
            for port in block.design.ports:
                if port == block.clock_port:
                    continue
                net_of.setdefault((name, port), f"{name}_{port}")
        return net_of

    def top_ports(self) -> List[Tuple[str, PortDirection]]:
        """Top-level data ports: every unlinked block port, prefixed."""
        linked = {(l.src_block, l.src_port) for l in self.links}
        linked |= {(l.dst_block, l.dst_port) for l in self.links}
        out = []
        for name, block in self.blocks.items():
            for port, direction in block.design.ports.items():
                if port == block.clock_port or (name, port) in linked:
                    continue
                out.append((f"{name}_{port}", direction))
        return out

    def flatten(self) -> Design:
        """The full flat netlist: the reference for ETM agreement."""
        top = Design(self.name)
        for name in self.blocks:
            top.add_port(f"clk_{name}", PortDirection.INPUT)
        for port, direction in self.top_ports():
            top.add_port(port, direction)
        net_of = self.boundary_nets()
        for name, block in self.blocks.items():
            design = block.design
            net_map: Dict[str, str] = {block.clock_port: f"clk_{name}"}
            for port in design.ports:
                if port == block.clock_port:
                    continue
                net_map[port] = net_of[(name, port)]
            for net_name in design.nets:
                net_map.setdefault(net_name, f"{name}_{net_name}")
            ox, oy = block.origin
            for inst in design.instances.values():
                loc = inst.location
                if loc is not None:
                    loc = (loc[0] + ox, loc[1] + oy)
                top.add_instance(
                    f"{name}_{inst.name}",
                    inst.cell_name,
                    {pin: net_map[n]
                     for pin, n in inst.connections.items()},
                    location=loc,
                )
        return top

    def top_constraints(
        self,
        period: float = 500.0,
        periods: Optional[Dict[str, float]] = None,
        uncertainty_setup: float = 10.0,
        uncertainty_hold: float = 5.0,
        source_latency: float = 0.0,
        clock_slew: float = 12.0,
        **constraint_kwargs,
    ) -> Constraints:
        """One clock per block instance (``clk_<inst>``)."""
        clocks = {}
        for name in self.blocks:
            clk = f"clk_{name}"
            clocks[clk] = ClockSpec(
                name=clk,
                period=(periods or {}).get(name, period),
                port=clk,
                uncertainty_setup=uncertainty_setup,
                uncertainty_hold=uncertainty_hold,
                source_latency=source_latency,
                slew=clock_slew,
            )
        return Constraints(clocks=clocks, **constraint_kwargs)
