"""Backward required-time propagation and per-pin slacks.

The forward pass (:mod:`repro.sta.propagation`) computes arrivals; this
module walks the graph backward from the timing endpoints to compute the
latest allowed arrival (late/setup mode) or earliest allowed arrival
(early/hold mode) at *every* pin. Pin slack = required - arrival (late)
or arrival - required (early).

Endpoints are seeded with the STA's own check formulas
(:meth:`~repro.sta.analysis.STA._setup_required` and its siblings), and
each edge is crossed with the forward pass's own terms
(:func:`~repro.sta.propagation.net_edge_terms`, SI delta included, and
:func:`~repro.sta.propagation.cell_edge_terms`), so every pin on a
worst path carries its endpoint's slack.

Per-pin slacks power two consumers: the ETM extractor
(:mod:`repro.sta.etm`) reads port budgets off them, and closure fix
guards (e.g. the MinIA fixer's ``slack_of``) read instance criticality.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.errors import TimingError
from repro.netlist.design import PinRef
from repro.sta.graph import CellEdge, NetEdge
from repro.sta.propagation import DIRECTIONS, cell_edge_terms, net_edge_terms

INF = math.inf

ReqKey = Tuple[PinRef, str]


def required_times(sta, mode: str = "late") -> Dict[ReqKey, float]:
    """Required time at every (pin, direction).

    ``mode="late"`` gives the latest allowed (setup) arrival; pins with
    no path to an endpoint get +inf. ``mode="early"`` gives the earliest
    allowed (hold) arrival; unconstrained pins get -inf.
    """
    if sta.prop is None:
        raise TimingError("run() must be called before required-time analysis")
    if mode not in ("late", "early"):
        raise TimingError(f"bad mode {mode!r}")
    alg = sta.algebra
    req: Dict[ReqKey, float] = {}
    _seed_endpoints(sta, req, mode)

    better = alg.min if mode == "late" else alg.max
    for ref in reversed(sta.graph.topo_order):
        for edge in sta.graph.out_edges.get(ref, []):
            if isinstance(edge, NetEdge):
                _relax_net_edge(sta, req, edge, mode, better)
            else:
                _relax_cell_edge(sta, req, edge, mode, better)
    return req


def pin_slack(sta, req: Dict[ReqKey, float], ref: PinRef,
              mode: str = "late") -> float:
    """Worst slack at a pin over both directions (inf when unconstrained)."""
    alg = sta.algebra
    worst = INF
    for direction in DIRECTIONS:
        if not sta.prop.has(ref, direction):
            continue
        r = req.get((ref, direction))
        if r is None:
            continue
        arr = sta.prop.at(ref, direction)
        if mode == "late":
            if r == INF:
                continue
            worst = alg.min(worst, r - arr.late)
        else:
            if r == -INF:
                continue
            worst = alg.min(worst, arr.early - r)
    return worst


def instance_slacks(sta, mode: str = "late") -> Dict[str, float]:
    """Worst slack through each instance (min over its pins).

    The natural ``slack_of`` oracle for guarded optimizations (MinIA
    fixing, area recovery): an instance with small slack must not be
    slowed down.
    """
    alg = sta.algebra
    req = required_times(sta, mode)
    out: Dict[str, float] = {}
    for ref in sta.graph.topo_order:
        if ref.is_port:
            continue
        slack = pin_slack(sta, req, ref, mode)
        current = out.get(ref.instance, INF)
        out[ref.instance] = alg.min(current, slack)
    return out


# ---------------------------------------------------------------------- #


def _seed_endpoints(sta, req: Dict[ReqKey, float], mode: str) -> None:
    if not sta.constraints.clocks:
        return
    alg = sta.algebra
    late = mode == "late"
    checks = sta.graph.setup_checks() if late else sta.graph.hold_checks()
    for check in checks:
        capture = sta._capture(check)
        if capture is None:
            continue
        for direction in DIRECTIONS:
            if not sta.prop.has(check.data_pin, direction):
                continue
            arr = sta.prop.at(check.data_pin, direction)
            key = (check.data_pin, direction)
            if late:
                value = sta._setup_required(check, capture, direction,
                                            arr.slew_late)
                req[key] = alg.min(req.get(key, INF), value)
            else:
                value = sta._hold_required(check, capture, direction,
                                           arr.slew_early)
                req[key] = alg.max(req.get(key, -INF), value)
    if late:
        primary = sta.constraints.primary_clock()
        for ref in sta.graph.output_port_refs():
            value = sta._output_required(ref, primary)
            for direction in DIRECTIONS:
                key = (ref, direction)
                req[key] = alg.min(req.get(key, INF), value)


def _relax_net_edge(sta, req, edge: NetEdge, mode: str, better) -> None:
    wire, si, _ = net_edge_terms(sta.parasitics, edge, sta.si_delta,
                                 sta.algebra)
    delay = wire + si if mode == "late" else max(wire - si, 0.0)
    default = INF if mode == "late" else -INF
    for direction in DIRECTIONS:
        dst_req = req.get((edge.sink, direction))
        if dst_req is None or math.isinf(dst_req):
            continue
        key = (edge.driver, direction)
        req[key] = better(req.get(key, default), dst_req - delay)


def _relax_cell_edge(sta, req, edge: CellEdge, mode: str, better) -> None:
    load, skew, is_clock, depth = cell_edge_terms(sta.graph, sta.parasitics,
                                                  edge)
    default = INF if mode == "late" else -INF
    for in_dir in DIRECTIONS:
        if not sta.prop.has(edge.src, in_dir):
            continue
        src = sta.prop.at(edge.src, in_dir)
        slew = src.slew_late if mode == "late" else src.slew_early
        for out_dir in edge.arc.sense.output_directions(in_dir):
            if out_dir not in edge.arc.timing:
                continue
            dst_req = req.get((edge.dst, out_dir))
            if dst_req is None or math.isinf(dst_req):
                continue
            delay, _ = edge.arc.delay_and_slew(out_dir, slew, load)
            delay = sta.algebra.arc_delay(edge, out_dir, slew, load, mode,
                                          delay)
            delay = skew + delay * sta.derates.factor(
                is_clock, mode, depth, edge.instance
            )
            key = (edge.src, in_dir)
            req[key] = better(req.get(key, default), dst_req - delay)
