"""The pin-level timing graph.

Nodes are pins (:class:`repro.netlist.design.PinRef`); edges are either
*net* edges (driver pin -> sink pin, carrying wire delay) or *cell* edges
(input pin -> output pin, carrying a library timing arc). Flip-flops break
the graph into a DAG: their D pins are data endpoints, their CK->Q arcs are
launch edges, and setup/hold constraint arcs become *checks* rather than
edges.

The clock network (pins reachable from a clock root without passing
through a data pin) is marked so propagation can apply clock-specific
derates and CPPR can identify common clock segments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Set

from repro.errors import TimingError
from repro.liberty.arcs import TimingArc, TimingType
from repro.liberty.library import Library
from repro.netlist.design import Design, PinRef
from repro.sta.constraints import Constraints


@dataclass(frozen=True)
class NetEdge:
    """Driver pin -> sink pin through a net."""

    net_name: str
    driver: PinRef
    sink: PinRef


@dataclass(frozen=True)
class CellEdge:
    """Input pin -> output pin through a library delay arc (``src`` and
    ``dst`` are built once: every timing route reads them, some twice)."""

    instance: str
    arc: TimingArc

    @cached_property
    def src(self) -> PinRef:
        return PinRef(self.instance, self.arc.related_pin)

    @cached_property
    def dst(self) -> PinRef:
        return PinRef(self.instance, self.arc.pin)


@dataclass(frozen=True)
class TimingCheck:
    """A setup or hold check at a flop: (data pin, clock pin, arc)."""

    instance: str
    data_pin: PinRef
    clock_pin: PinRef
    arc: TimingArc

    @property
    def is_setup(self) -> bool:
        return self.arc.timing_type is TimingType.SETUP_RISING


class TimingGraph:
    """The levelized timing graph of one design against one library."""

    def __init__(self, design: Design, library: Library,
                 constraints: Constraints):
        self.design = design
        self.library = library
        self.constraints = constraints
        self.in_edges: Dict[PinRef, List[object]] = {}
        self.out_edges: Dict[PinRef, List[object]] = {}
        self.checks: List[TimingCheck] = []
        self.clock_pins: Set[PinRef] = set()
        self.clock_roots: List[PinRef] = []
        self._build()
        self.topo_order: List[PinRef] = self._levelize()
        self._mark_clock_network()
        self.data_depth: Dict[PinRef, int] = self._stage_depths()

    # ------------------------------------------------------------------ #
    # construction

    def _add_edge(self, edge, src: PinRef, dst: PinRef) -> None:
        self.out_edges.setdefault(src, []).append(edge)
        self.in_edges.setdefault(dst, []).append(edge)
        self.in_edges.setdefault(src, self.in_edges.get(src, []))
        self.out_edges.setdefault(dst, self.out_edges.get(dst, []))

    def _build(self) -> None:
        design, library = self.design, self.library
        for net in design.nets.values():
            if net.driver is None:
                continue
            for sink in net.loads:
                self._add_edge(NetEdge(net.name, net.driver, sink),
                               net.driver, sink)
        for inst in design.instances.values():
            cell = library.cell(inst.cell_name)
            for arc in cell.arcs:
                if arc.timing_type.is_delay:
                    edge = CellEdge(inst.name, arc)
                    self._add_edge(edge, edge.src, edge.dst)
                else:
                    self.checks.append(
                        TimingCheck(
                            instance=inst.name,
                            data_pin=PinRef(inst.name, arc.pin),
                            clock_pin=PinRef(inst.name, arc.related_pin),
                            arc=arc,
                        )
                    )
        for clock in self.constraints.clocks.values():
            root = PinRef("", clock.port)
            if clock.port not in design.ports:
                raise TimingError(
                    f"clock {clock.name} enters at unknown port {clock.port!r}"
                )
            self.clock_roots.append(root)

    def _levelize(self) -> List[PinRef]:
        """Kahn topological order; raises on combinational loops."""
        indegree: Dict[PinRef, int] = {
            ref: len(edges) for ref, edges in self.in_edges.items()
        }
        for ref in self.out_edges:
            indegree.setdefault(ref, 0)
        queue = deque(sorted(
            (ref for ref, deg in indegree.items() if deg == 0), key=str
        ))
        order: List[PinRef] = []
        while queue:
            ref = queue.popleft()
            order.append(ref)
            for edge in self.out_edges.get(ref, []):
                dst = edge.sink if isinstance(edge, NetEdge) else edge.dst
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    queue.append(dst)
        if len(order) != len(indegree):
            remaining = [str(r) for r, d in indegree.items() if d > 0]
            raise TimingError(
                "combinational loop detected involving: "
                + ", ".join(sorted(remaining)[:8])
            )
        return order

    def _mark_clock_network(self) -> None:
        """BFS from clock roots through net edges and *buffering* cells
        (buf/inv) — data cells stop clock propagation."""
        queue = deque(self.clock_roots)
        seen: Set[PinRef] = set(self.clock_roots)
        while queue:
            ref = queue.popleft()
            self.clock_pins.add(ref)
            for edge in self.out_edges.get(ref, []):
                if isinstance(edge, NetEdge):
                    nxt = edge.sink
                else:
                    cell = self.library.cell(
                        self.design.instance(edge.instance).cell_name
                    )
                    if cell.footprint not in ("buf", "inv"):
                        continue  # clock stops at data gates and flops
                    nxt = edge.dst
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)

    def _stage_depths(self) -> Dict[PinRef, int]:
        """Cell-arc count from any startpoint — AOCV's path-depth proxy."""
        depth: Dict[PinRef, int] = {}
        for ref in self.topo_order:
            best = 0
            for edge in self.in_edges.get(ref, []):
                if isinstance(edge, NetEdge):
                    best = max(best, depth.get(edge.driver, 0))
                else:
                    best = max(best, depth.get(edge.src, 0) + 1)
            depth[ref] = best
        return depth

    # ------------------------------------------------------------------ #
    # queries

    def startpoints(self) -> List[PinRef]:
        """Pins with no fanin: ports and undriven pins."""
        return [r for r in self.topo_order if not self.in_edges.get(r)]

    def setup_checks(self) -> List[TimingCheck]:
        return [c for c in self.checks if c.is_setup]

    def hold_checks(self) -> List[TimingCheck]:
        return [c for c in self.checks if not c.is_setup]

    def output_port_refs(self) -> List[PinRef]:
        return [PinRef("", p) for p in self.design.output_ports()]

    def load_pin_refs(self, net_name: str) -> List[PinRef]:
        return list(self.design.get_net(net_name).loads)

    def instance_of(self, ref: PinRef):
        if ref.is_port:
            raise TimingError(f"{ref} is a port, not an instance pin")
        return self.design.instance(ref.instance)

    def cell_of(self, ref: PinRef):
        return self.library.cell(self.instance_of(ref).cell_name)

    def stats(self) -> Dict[str, int]:
        n_cell = sum(
            1
            for edges in self.out_edges.values()
            for e in edges
            if isinstance(e, CellEdge)
        )
        n_net = sum(
            1
            for edges in self.out_edges.values()
            for e in edges
            if isinstance(e, NetEdge)
        )
        return {
            "pins": len(self.topo_order),
            "cell_edges": n_cell,
            "net_edges": n_net,
            "checks": len(self.checks),
            "clock_pins": len(self.clock_pins),
        }
