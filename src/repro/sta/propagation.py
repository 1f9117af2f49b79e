"""Early/late arrival and slew propagation (graph-based analysis).

One forward pass over the levelized graph computes, for every pin and
transition direction, the earliest and latest arrival with the worst
(merged) slews, plus backpointers for path reconstruction. Derating —
flat OCV and/or AOCV stage-count tables — is applied per edge according to
whether the edge lies on the clock or data network.

The worst-slew merging performed here is exactly the pessimism that
path-based analysis (:mod:`repro.sta.pba`) removes by re-propagating
path-specific slews.

Arrival values live in a pluggable timing algebra
(:mod:`repro.sta.algebra`): plain floats by default, canonical forms or
Monte-Carlo sample vectors for statistical analysis. Merging (max/min)
and delay lifting (cell arcs and, once per net edge, wires) go through
the algebra; unset sentinels are float ``+/-inf`` in every mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import TimingError
from repro.liberty.aocv import AocvTable
from repro.liberty.arcs import TimingType
from repro.netlist.design import PinRef
from repro.parasitics.synthesis import ParasiticExtractor
from repro.sta.algebra import SCALAR, TimingAlgebra
from repro.sta.graph import CellEdge, NetEdge, TimingGraph

INF = math.inf

Direction = str  # "rise" | "fall"
DIRECTIONS = ("rise", "fall")


@dataclass
class Derates:
    """Derating configuration.

    Flat factors multiply arc delays (late >= 1 slows the data/clock path,
    early <= 1 speeds it). An optional AOCV table refines the flat factors
    by path depth; ``aocv_distance`` supplies the bounding-box diagonal
    argument (a constant per run, the common simplification).
    ``instance_late``/``instance_early`` overlay per-instance factors —
    used e.g. for per-die derates in 3DIC analysis
    (:mod:`repro.core.threedic`).
    """

    data_late: float = 1.0
    data_early: float = 1.0
    clock_late: float = 1.0
    clock_early: float = 1.0
    aocv: Optional[AocvTable] = None
    aocv_distance: float = 0.0
    instance_late: Dict[str, float] = field(default_factory=dict)
    instance_early: Dict[str, float] = field(default_factory=dict)

    def factor(self, is_clock: bool, mode: str, depth: int,
               instance: str = "") -> float:
        if mode not in ("late", "early"):
            raise TimingError(f"bad derate mode {mode!r}")
        if is_clock:
            flat = self.clock_late if mode == "late" else self.clock_early
        else:
            flat = self.data_late if mode == "late" else self.data_early
        if self.aocv is not None:
            flat *= self.aocv.derate(max(depth, 1), self.aocv_distance, mode)
        if instance:
            table = self.instance_late if mode == "late" else \
                self.instance_early
            flat *= table.get(instance, 1.0)
        return flat


@dataclass
class Arrival:
    """Arrival bookkeeping for one (pin, direction)."""

    late: float = -INF
    early: float = INF
    slew_late: float = 0.0
    slew_early: float = 0.0
    # (edge, source direction) backpointers for path reconstruction.
    pred_late: Optional[Tuple[object, Direction]] = None
    pred_early: Optional[Tuple[object, Direction]] = None

    @property
    def valid(self) -> bool:
        return self.late > -INF

    def offer_late(self, time: float, slew: float,
                   pred: Optional[Tuple[object, Direction]],
                   alg: TimingAlgebra = SCALAR) -> None:
        if not alg.le(time, self.late):
            self.pred_late = pred
        self.late = alg.max(self.late, time)
        self.slew_late = max(self.slew_late, slew)

    def offer_early(self, time: float, slew: float,
                    pred: Optional[Tuple[object, Direction]],
                    alg: TimingAlgebra = SCALAR) -> None:
        if not alg.le(self.early, time):
            self.pred_early = pred
        self.early = alg.min(self.early, time)
        if self.slew_early == 0.0:
            self.slew_early = slew
        else:
            self.slew_early = min(self.slew_early, slew)


class PropagationResult:
    """Arrivals for every (pin, direction), plus per-driver loads."""

    def __init__(self):
        self.arrivals: Dict[Tuple[PinRef, Direction], Arrival] = {}
        self.loads: Dict[PinRef, float] = {}

    def at(self, ref: PinRef, direction: Direction) -> Arrival:
        key = (ref, direction)
        if key not in self.arrivals:
            self.arrivals[key] = Arrival()
        return self.arrivals[key]

    def has(self, ref: PinRef, direction: Direction) -> bool:
        arr = self.arrivals.get((ref, direction))
        return arr is not None and arr.valid

    def worst_late(self, ref: PinRef) -> Tuple[Optional[Direction], float]:
        best_dir, best = None, -INF
        for d in DIRECTIONS:
            if self.has(ref, d) and self.at(ref, d).late > best:
                best, best_dir = self.at(ref, d).late, d
        return best_dir, best

    def best_early(self, ref: PinRef) -> Tuple[Optional[Direction], float]:
        best_dir, best = None, INF
        for d in DIRECTIONS:
            if self.has(ref, d) and self.at(ref, d).early < best:
                best, best_dir = self.at(ref, d).early, d
        return best_dir, best


def propagate(
    graph: TimingGraph,
    parasitics: ParasiticExtractor,
    derates: Derates = Derates(),
    si_delta: Optional[Dict[str, float]] = None,
    algebra: TimingAlgebra = SCALAR,
) -> PropagationResult:
    """Run the forward GBA pass.

    Args:
        graph: the levelized timing graph.
        parasitics: extractor for wire loads/delays.
        derates: flat/AOCV derating configuration.
        si_delta: optional per-net coupling delta delay (ps), added to late
            wire delays and subtracted from early ones
            (:mod:`repro.sta.si` computes it).
        algebra: the timing-value algebra arrivals live in. The scalar
            default reproduces the pre-algebra engine bit-for-bit.

    Returns:
        A :class:`PropagationResult`.
    """
    result = seed_arrivals(graph)
    for ref in graph.topo_order:
        for edge in graph.in_edges.get(ref, []):
            if isinstance(edge, NetEdge):
                _propagate_net_edge(parasitics, result, edge, si_delta,
                                    algebra)
            else:
                _propagate_cell_edge(graph, parasitics, result, edge, derates,
                                     algebra)
    return result


def seed_arrivals(graph: TimingGraph) -> PropagationResult:
    """The arrivals the forward pass starts from: each clock root at its
    source latency and slew, each other input port at its input delay
    and the default input slew, both directions."""
    result = PropagationResult()
    constraints = graph.constraints
    for clock in constraints.clocks.values():
        root = PinRef("", clock.port)
        for direction in DIRECTIONS:
            arr = result.at(root, direction)
            arr.offer_late(clock.source_latency, clock.slew, None)
            arr.offer_early(clock.source_latency, clock.slew, None)

    clock_ports = {c.port for c in constraints.clocks.values()}
    for port in graph.design.input_ports():
        if port in clock_ports:
            continue
        delay = constraints.input_delays.get(port, 0.0)
        ref = PinRef("", port)
        for direction in DIRECTIONS:
            arr = result.at(ref, direction)
            arr.offer_late(delay, constraints.default_input_slew, None)
            arr.offer_early(delay, constraints.default_input_slew, None)
    return result


def net_edge_terms(parasitics: ParasiticExtractor, edge: NetEdge,
                   si_delta: Optional[Dict[str, float]],
                   alg: TimingAlgebra) -> Tuple[object, float, float]:
    """(wire, si, degrade) of a net edge: its wire delay lifted into
    ``alg``, its SI delta (0.0 without one; ``si_delta`` None is SI off)
    and its slew degradation. A late arrival crosses the edge as
    ``(t + wire) + si``, an early one as ``t + max(wire - si, 0.0)``."""
    para = parasitics.extract(edge.net_name)
    cap = parasitics.sink_cap(edge.sink)
    wire = alg.wire_delay(edge, para.wire_delay(edge.sink, cap))
    si = si_delta.get(edge.net_name, 0.0) if si_delta else 0.0
    return wire, si, para.slew_degradation(edge.sink, cap)


def cell_edge_terms(graph: TimingGraph, parasitics: ParasiticExtractor,
                    edge: CellEdge) -> Tuple[float, float, bool, int]:
    """(load, skew, is_clock, depth) of a cell edge: its output load,
    the useful-skew latency a launch flop's CK->Q arc adds, and the
    clock-network flag and AOCV depth its derate factor takes. An
    arrival crosses the edge as ``(t + skew) + delay * factor``."""
    dst = edge.dst
    skew = 0.0
    if edge.arc.timing_type is TimingType.RISING_EDGE:
        skew = graph.constraints.clock_latency.get(edge.instance, 0.0)
    return (driver_load(graph, parasitics, dst), skew,
            edge.src in graph.clock_pins, graph.data_depth.get(dst, 1))


def _propagate_net_edge(parasitics, result, edge: NetEdge, si_delta,
                        alg: TimingAlgebra = SCALAR) -> None:
    wire, si, degrade = net_edge_terms(parasitics, edge, si_delta, alg)
    for direction in DIRECTIONS:
        if not result.has(edge.driver, direction):
            continue
        src = result.at(edge.driver, direction)
        dst = result.at(edge.sink, direction)
        if src.late > -INF:
            dst.offer_late(src.late + wire + si,
                           src.slew_late + degrade, (edge, direction), alg)
        if src.early < INF:
            dst.offer_early(src.early + max(wire - si, 0.0),
                            src.slew_early + degrade, (edge, direction), alg)


def _propagate_cell_edge(graph, parasitics, result, edge: CellEdge,
                         derates: Derates,
                         alg: TimingAlgebra = SCALAR) -> None:
    load, skew, is_clock, depth = cell_edge_terms(graph, parasitics, edge)
    src_ref, dst_ref = edge.src, edge.dst
    result.loads[dst_ref] = load
    for in_dir in DIRECTIONS:
        if not result.has(src_ref, in_dir):
            continue
        src = result.at(src_ref, in_dir)
        for out_dir in edge.arc.sense.output_directions(in_dir):
            if out_dir not in edge.arc.timing:
                continue
            d_late, s_late = edge.arc.delay_and_slew(
                out_dir, src.slew_late, load
            )
            d_early, s_early = edge.arc.delay_and_slew(
                out_dir, src.slew_early, load
            )
            d_late = alg.arc_delay(edge, out_dir, src.slew_late, load,
                                   "late", d_late)
            d_early = alg.arc_delay(edge, out_dir, src.slew_early, load,
                                    "early", d_early)
            dst = result.at(dst_ref, out_dir)
            dst.offer_late(
                src.late + skew
                + d_late * derates.factor(is_clock, "late", depth,
                                          edge.instance),
                s_late,
                (edge, in_dir),
                alg,
            )
            dst.offer_early(
                src.early + skew
                + d_early * derates.factor(is_clock, "early", depth,
                                           edge.instance),
                s_early,
                (edge, in_dir),
                alg,
            )


def driver_load(graph: TimingGraph, parasitics: ParasiticExtractor,
                output_ref: PinRef) -> float:
    """Total load on an output pin: wire cap plus sink pin caps."""
    inst = graph.design.instance(output_ref.instance)
    net_name = inst.net_of(output_ref.pin)
    para = parasitics.extract(net_name)
    return para.driver_load(parasitics.pin_caps_total(net_name))
