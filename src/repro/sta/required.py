"""Backward required-time propagation and per-pin slacks.

The forward pass (:mod:`repro.sta.propagation`) computes arrivals; this
module walks the graph backward from the timing endpoints to compute the
latest allowed arrival (late/setup mode) or earliest allowed arrival
(early/hold mode) at *every* pin. Pin slack = required - arrival (late)
or arrival - required (early).

Per-pin slacks power two consumers: the ETM extractor
(:mod:`repro.sta.etm`) reads port budgets off them, and closure fix
guards (e.g. the MinIA fixer's ``slack_of``) read instance criticality.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.errors import TimingError
from repro.netlist.design import PinRef
from repro.sta.algebra import SCALAR
from repro.sta.graph import CellEdge, NetEdge
from repro.sta.propagation import DIRECTIONS, driver_load

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
    alg = getattr(sta, "algebra", SCALAR)
    req: Dict[ReqKey, float] = {}
    _seed_endpoints(sta, req, mode, alg)

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
    alg = getattr(sta, "algebra", SCALAR)
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
    alg = getattr(sta, "algebra", SCALAR)
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


def _seed_endpoints(sta, req: Dict[ReqKey, float], mode: str,
                    alg=SCALAR) -> None:
    constraints = sta.constraints
    if not constraints.clocks:
        return
    if mode == "late":
        for check in sta.graph.setup_checks():
            clk = sta.prop.at(check.clock_pin, "rise")
            if not clk.valid:
                continue
            clock = sta._clock_of_check(check)
            if clock is None:
                continue
            clk_early = clk.early + constraints.clock_latency.get(
                check.instance, 0.0
            )
            for direction in DIRECTIONS:
                if not sta.prop.has(check.data_pin, direction):
                    continue
                arr = sta.prop.at(check.data_pin, direction)
                setup = check.arc.constraint_value(
                    direction, arr.slew_late, clk.slew_late
                )
                value = (
                    clock.period + clk_early - setup
                    - clock.uncertainty_setup
                    - constraints.flat_setup_margin
                )
                key = (check.data_pin, direction)
                req[key] = alg.min(req.get(key, INF), value)
        primary = constraints.primary_clock()
        for ref in sta.graph.output_port_refs():
            value = (
                primary.period
                - constraints.output_delays.get(ref.pin, 0.0)
                - primary.uncertainty_setup
            )
            for direction in DIRECTIONS:
                key = (ref, direction)
                req[key] = alg.min(req.get(key, INF), value)
    else:
        for check in sta.graph.hold_checks():
            clk = sta.prop.at(check.clock_pin, "rise")
            if not clk.valid:
                continue
            clock = sta._clock_of_check(check)
            if clock is None:
                continue
            clk_late = clk.late + constraints.clock_latency.get(
                check.instance, 0.0
            )
            for direction in DIRECTIONS:
                if not sta.prop.has(check.data_pin, direction):
                    continue
                arr = sta.prop.at(check.data_pin, direction)
                hold = check.arc.constraint_value(
                    direction, arr.slew_early, clk.slew_late
                )
                value = (
                    clk_late + hold + clock.uncertainty_hold
                    + constraints.flat_hold_margin
                )
                key = (check.data_pin, direction)
                req[key] = alg.max(req.get(key, -INF), value)


def _relax_net_edge(sta, req, edge: NetEdge, mode: str, better) -> None:
    para = sta.parasitics.extract(edge.net_name)
    pin_cap = 2.0
    if not edge.sink.is_port:
        pin_cap = sta.graph.cell_of(edge.sink).pin(edge.sink.pin).capacitance
    delay = para.wire_delay(edge.sink, pin_cap)
    for direction in DIRECTIONS:
        dst_req = req.get((edge.sink, direction))
        if dst_req is None or math.isinf(dst_req):
            continue
        key = (edge.driver, direction)
        candidate = dst_req - delay
        default = INF if mode == "late" else -INF
        req[key] = better(req.get(key, default), candidate)


def _relax_cell_edge(sta, req, edge: CellEdge, mode: str, better) -> None:
    from repro.liberty.arcs import TimingType

    alg = getattr(sta, "algebra", SCALAR)
    load = driver_load(sta.graph, sta.parasitics, edge.dst)
    is_clock = edge.src in sta.graph.clock_pins
    depth = sta.graph.data_depth.get(edge.dst, 1)
    skew = 0.0
    if edge.arc.timing_type is TimingType.RISING_EDGE:
        skew = sta.constraints.clock_latency.get(edge.instance, 0.0)
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
            delay = alg.arc_delay(edge, out_dir, slew, load, mode, delay)
            delay = skew + delay * sta.derates.factor(
                is_clock, mode, depth, edge.instance
            )
            key = (edge.src, in_dir)
            default = INF if mode == "late" else -INF
            req[key] = better(req.get(key, default), dst_req - delay)
