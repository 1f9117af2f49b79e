"""Extracted timing models (ETM) for hierarchical analysis.

Section 4, comment 3: "flat vs ETM-based/hierarchical analysis and
optimization" is one of the schedule/QOR levers of SOC design closure.
An ETM abstracts a closed block to its boundary:

- per data-input port: the *arrival budget* (latest top-level arrival
  that still meets every internal setup check) and a hold budget;
- per output port: the worst clock-to-output delay and slew, kept
  separate from pure input->output *feedthrough* arcs (which launch
  from a data port, not the clock);
- per input port: the capacitance the top level must drive.

Scalar budgets are read directly off the backward required-time pass
(:mod:`repro.sta.required`), so an ETM check is exact for paths through
the boundary — which the tests verify against flat analysis.

On top of the scalars, :func:`extract_etm` tabulates slew/load-indexed
boundary arcs in the shape Li & Schlichtmann (arXiv 1705.04976) describe:
setup/hold budgets as functions of the boundary data slew, clock->out
delay/slew as functions of the boundary load, and feedthrough arcs as
full (slew, load) tables. Tabulation requires the *anchored interface*
discipline (see :func:`repro.netlist.hierarchy.with_boundary_anchors`):
each data input drives exactly one combinational anchor cell whose
fanout is flop data pins, and each output is driven by a combinational
anchor. Ports that do not satisfy it keep scalar-only data.

Budget tables are stored on the block's own absolute time base (clock
source latency included); :mod:`repro.sta.hier` applies the affine
shifts that turn them into stub-cell constraint/delay tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TimingError
from repro.liberty.arcs import ArcTiming, TimingSense
from repro.liberty.tables import LookupTable2D
from repro.netlist.design import PinRef
from repro.sta.algebra import SCALAR
from repro.sta.analysis import STA
from repro.sta.graph import CellEdge, NetEdge
from repro.sta.propagation import DIRECTIONS, cell_edge_terms, net_edge_terms
from repro.sta.required import pin_slack, required_times

#: Degenerate clock-slew axis for budget tables: the budget depends on
#: the boundary data slew only (the capture-clock slew inside the block
#: is fixed by its clock tree), so tables are constant along this axis.
CSLEW_AXIS = (1.0, 300.0)


@dataclass
class EtmClock:
    """A clock the block was extracted under (mirrors ClockSpec)."""

    name: str
    port: str
    period: float
    uncertainty_setup: float
    uncertainty_hold: float
    source_latency: float
    slew: float


@dataclass
class EtmFeedthroughArc:
    """A combinational input->output arc through the block."""

    from_port: str
    to_port: str
    sense: TimingSense
    #: output direction -> delay/slew tables over (input slew, output load),
    #: underived (the consuming engine applies its own derate factors).
    timing: Dict[str, ArcTiming] = field(default_factory=dict)
    slew_validity: Optional[Tuple[float, float]] = None
    load_validity: Optional[Tuple[float, float]] = None


@dataclass
class EtmPort:
    """Boundary timing data for one port."""

    name: str
    setup_budget: Optional[float] = None  # latest OK arrival, ps
    hold_budget: Optional[float] = None  # earliest OK arrival, ps
    clock_to_out: Optional[float] = None  # worst output delay, ps
    input_cap: Optional[float] = None  # legacy: wire + pin load, fF
    # -- extended, slew/load-indexed data -------------------------------- #
    clock: Optional[str] = None  # governing clock name, if unique
    pin_cap: Optional[float] = None  # boundary anchor pin cap, fF
    feedthrough_delay: Optional[float] = None  # worst in->out arrival, ps
    feedthrough_from: Optional[str] = None  # launching input port
    #: data direction -> latest OK arrival vs (data slew, clock slew)
    setup_budget_tables: Dict[str, LookupTable2D] = field(default_factory=dict)
    #: data direction -> earliest OK arrival vs (data slew, clock slew)
    hold_budget_tables: Dict[str, LookupTable2D] = field(default_factory=dict)
    #: output direction -> clock->out arrival/slew vs (clock slew, load);
    #: arrivals are measured from the clock edge at the block clock port
    #: (source latency removed).
    clock_to_out_timing: Dict[str, ArcTiming] = field(default_factory=dict)
    slew_validity: Optional[Tuple[float, float]] = None
    load_validity: Optional[Tuple[float, float]] = None


@dataclass
class ExtractedTimingModel:
    """A block abstracted to its boundary."""

    block_name: str
    clock_port: str
    period: float
    ports: Dict[str, EtmPort] = field(default_factory=dict)
    internal_wns: float = math.inf  # setup WNS of purely-internal paths
    internal_hold_wns: float = math.inf
    #: Every clock the block was extracted under, by name.
    clocks: Dict[str, EtmClock] = field(default_factory=dict)
    #: clock port -> total pin cap its net drives, fF (for stub CK pins).
    clock_caps: Dict[str, float] = field(default_factory=dict)
    #: port -> flat anchor pin ("inst/pin") the tables are referenced to.
    boundary_pins: Dict[str, str] = field(default_factory=dict)
    feedthroughs: List[EtmFeedthroughArc] = field(default_factory=list)
    flat_setup_margin: float = 0.0
    flat_hold_margin: float = 0.0

    def input_ports(self) -> List[str]:
        return [p for p, d in self.ports.items() if d.setup_budget is not None]

    def output_ports(self) -> List[str]:
        return [p for p, d in self.ports.items() if d.clock_to_out is not None]

    def feedthrough_ports(self) -> List[str]:
        return [p for p, d in self.ports.items()
                if d.feedthrough_delay is not None]

    def setup_slack_for_arrival(self, port: str, arrival: float) -> float:
        """Top-level setup slack for data arriving at ``arrival`` ps after
        the clock edge at this input port."""
        data = self.ports.get(port)
        if data is None or data.setup_budget is None:
            raise TimingError(f"ETM has no setup budget for port {port!r}")
        return data.setup_budget - arrival

    def hold_slack_for_arrival(self, port: str, arrival: float) -> float:
        data = self.ports.get(port)
        if data is None or data.hold_budget is None:
            raise TimingError(f"ETM has no hold budget for port {port!r}")
        return arrival - data.hold_budget

    def check(self, arrivals: Dict[str, float]) -> float:
        """Merged WNS for a set of top-level input arrivals: the min of
        the internal WNS and every boundary setup slack."""
        wns = self.internal_wns
        for port, arrival in arrivals.items():
            wns = min(wns, self.setup_slack_for_arrival(port, arrival))
        return wns


def extract_etm(sta: STA) -> ExtractedTimingModel:
    """Extract the block's ETM from a completed STA run.

    The run must use zero input delays so budgets are absolute (the
    extractor asserts this). Reuses the retained report of the completed
    run — a second full analysis is only paid if ``run()`` was never
    called.
    """
    if sta.prop is None:
        raise TimingError("run() must be called before ETM extraction")
    constraints = sta.constraints
    if any(v != 0.0 for v in constraints.input_delays.values()):
        raise TimingError("extract the ETM with zero input delays")
    primary = constraints.primary_clock()

    etm = ExtractedTimingModel(
        block_name=sta.design.name,
        clock_port=primary.port,
        period=primary.period,
        flat_setup_margin=constraints.flat_setup_margin,
        flat_hold_margin=constraints.flat_hold_margin,
    )
    for name, spec in constraints.clocks.items():
        etm.clocks[name] = EtmClock(
            name=spec.name, port=spec.port, period=spec.period,
            uncertainty_setup=spec.uncertainty_setup,
            uncertainty_hold=spec.uncertainty_hold,
            source_latency=spec.source_latency, slew=spec.slew,
        )
        etm.clock_caps[spec.port] = sta.parasitics.pin_caps_total(spec.port)

    req_late = required_times(sta, "late")
    req_early = required_times(sta, "early")

    clock_ports = {c.port for c in constraints.clocks.values()}
    for port in sta.design.input_ports():
        if port in clock_ports:
            continue
        ref = PinRef("", port)
        setup_budget = pin_slack(sta, req_late, ref, "late")
        hold_slack = pin_slack(sta, req_early, ref, "early")
        entry = etm.ports.setdefault(port, EtmPort(name=port))
        if not math.isinf(setup_budget):
            # Arrival was 0, so the slack IS the remaining budget.
            entry.setup_budget = setup_budget
        if not math.isinf(hold_slack):
            entry.hold_budget = -hold_slack  # earliest allowed arrival
        entry.input_cap = sta.parasitics.extract(port).driver_load(
            sta.parasitics.pin_caps_total(port)
        )

    report = sta.report
    if report is None:
        report = sta.run()
    for endpoint in report.endpoints("setup"):
        if endpoint.kind != "output":
            continue
        port = endpoint.endpoint.pin
        entry = etm.ports.setdefault(port, EtmPort(name=port))
        if endpoint.launched_from_clock:
            entry.clock_to_out = endpoint.arrival
        else:
            # Feedthrough: the worst path launches from a data input at
            # arrival 0, so this is an in->out delay, not clock-to-out.
            entry.feedthrough_delay = endpoint.arrival
            start = endpoint.startpoint
            if start is not None and start.is_port:
                entry.feedthrough_from = start.pin

    # Internal WNS: flop-to-flop paths that never cross the boundary.
    # Conservative: endpoints whose worst path starts at a clock root.
    internal = math.inf
    for endpoint in report.endpoints("setup"):
        if endpoint.kind != "setup":
            continue
        if endpoint.launched_from_clock:
            internal = min(internal, endpoint.slack)
    etm.internal_wns = internal
    internal_hold = math.inf
    for endpoint in report.endpoints("hold"):
        if endpoint.launched_from_clock:
            internal_hold = min(internal_hold, endpoint.slack)
    etm.internal_hold_wns = internal_hold

    _extract_input_tables(sta, etm, clock_ports)
    _extract_output_tables(sta, etm, clock_ports)
    return etm


# ---------------------------------------------------------------------- #
# slew/load-indexed boundary arcs


def _densify(points) -> List[float]:
    """Sorted unique points plus midpoints (interpolation headroom)."""
    pts = sorted({float(p) for p in points})
    if len(pts) < 2:
        pts = pts + [pts[0] + 1.0] if pts else [1.0, 2.0]
    out: List[float] = []
    for a, b in zip(pts, pts[1:]):
        out.append(a)
        out.append(0.5 * (a + b))
    out.append(pts[-1])
    return out


def _budget_table(axis: List[float], values: List[float]) -> LookupTable2D:
    """A (data slew x clock slew) table constant along the clock axis."""
    return LookupTable2D(
        tuple(axis), CSLEW_AXIS, [[v, v] for v in values]
    )


def _anchor_of_input(sta: STA, port: str):
    """(anchor input ref, its single delay arc) or None.

    The anchored-interface discipline: the port net has exactly one
    load, a combinational cell pin with exactly one delay arc.
    """
    net = sta.design.nets.get(port)
    if net is None or len(net.loads) != 1:
        return None
    anchor_in = net.loads[0]
    if anchor_in.is_port:
        return None
    cell = sta.graph.cell_of(anchor_in)
    if cell.is_sequential:
        return None
    arcs = [a for a in cell.arcs
            if a.related_pin == anchor_in.pin and a.timing_type.is_delay]
    if len(arcs) != 1:
        return None
    return anchor_in, arcs[0]


def _extract_input_tables(sta: STA, etm: ExtractedTimingModel,
                          clock_ports) -> None:
    setup_by_pin = {c.data_pin: c for c in sta.graph.setup_checks()}
    hold_by_pin = {c.data_pin: c for c in sta.graph.hold_checks()}
    for port in sta.design.input_ports():
        if port in clock_ports:
            continue
        anchored = _anchor_of_input(sta, port)
        if anchored is None:
            continue
        anchor_in, arc = anchored
        inst = sta.design.instances[anchor_in.instance]
        out_net_name = inst.connections.get(arc.pin)
        if out_net_name is None:
            continue
        a_out = PinRef(anchor_in.instance, arc.pin)
        sinks = list(sta.design.nets[out_net_name].loads)
        if not sinks or any(
            s.is_port or s not in setup_by_pin or s not in hold_by_pin
            for s in sinks
        ):
            # Registered-immediately-in discipline violated: the anchor
            # must fan out to flop data pins only. Scalars still apply.
            continue
        captures = [sta._capture(setup_by_pin[sink]) for sink in sinks]
        if None in captures:
            continue  # a sink flop without a capture clock: scalars only
        # Per sink, once: its checks, their capture (a flop's setup and
        # hold checks share CK) and the anchor->sink wire terms, late and
        # early.
        sink_terms = []
        for sink, capture in zip(sinks, captures):
            wire, si, degrade = net_edge_terms(
                sta.parasitics, NetEdge(out_net_name, a_out, sink),
                sta.si_delta, SCALAR)
            sink_terms.append((setup_by_pin[sink], hold_by_pin[sink],
                               capture, wire + si, max(wire - si, 0.0),
                               degrade))
        _tabulate_input_budgets(sta, etm, port, anchor_in, arc, sink_terms)


def _tabulate_input_budgets(sta: STA, etm: ExtractedTimingModel, port: str,
                            anchor_in: PinRef, arc, sink_terms) -> None:
    """Setup/hold budget tables at an anchored input over the boundary
    data slew: the latest (earliest) anchor-input arrival that every
    sink's setup (hold) check allows through the anchor arc and wire."""
    load, _, is_clock, depth = cell_edge_terms(
        sta.graph, sta.parasitics, CellEdge(anchor_in.instance, arc))
    f_late = sta.derates.factor(is_clock, "late", depth, anchor_in.instance)
    f_early = sta.derates.factor(is_clock, "early", depth,
                                 anchor_in.instance)
    axis = _densify(
        x for t in arc.timing.values() for x in t.delay.index_1
    )
    entry = etm.ports.setdefault(port, EtmPort(name=port))
    for d_in in DIRECTIONS:
        setup_col: List[float] = []
        hold_col: List[float] = []
        for s in axis:
            latest = math.inf
            earliest = -math.inf
            for d_out in arc.sense.output_directions(d_in):
                if d_out not in arc.timing:
                    continue
                delay, out_slew = arc.delay_and_slew(d_out, s, load)
                for (setup_check, hold_check, capture, late_wire,
                     early_wire, degrade) in sink_terms:
                    sink_slew = out_slew + degrade
                    latest = min(
                        latest,
                        sta._setup_required(setup_check, capture, d_out,
                                            sink_slew)
                        - (delay * f_late + late_wire),
                    )
                    earliest = max(
                        earliest,
                        sta._hold_required(hold_check, capture, d_out,
                                           sink_slew)
                        - (delay * f_early + early_wire),
                    )
            if math.isinf(latest) or math.isinf(earliest):
                entry.setup_budget_tables.clear()
                entry.hold_budget_tables.clear()
                return
            setup_col.append(latest)
            hold_col.append(earliest)
        entry.setup_budget_tables[d_in] = _budget_table(axis, setup_col)
        entry.hold_budget_tables[d_in] = _budget_table(axis, hold_col)
    entry.pin_cap = sta.parasitics.sink_cap(anchor_in)
    entry.slew_validity = (axis[0], axis[-1])
    clocks_seen = {capture[0].name for _, _, capture, _, _, _ in sink_terms}
    if len(clocks_seen) == 1:
        entry.clock = next(iter(clocks_seen))
    etm.boundary_pins[port] = str(anchor_in)


def _trace_feedthrough_chain(sta: STA, a_in: PinRef):
    """Walk upstream from an output anchor's input pin to a launch point.

    Returns ("port", input port name, stages) for a feedthrough chain —
    stages ordered source->sink as (instance, arc, out_ref, in_ref) —
    ("reg", None, None) for a flop-launched cone, or (None, None, None)
    when the structure is ambiguous (reconvergence, non-unate stages).
    """
    stages = []
    cur = a_in
    for _ in range(64):
        net_name = None
        if cur.is_port:
            return "port", cur.pin, list(reversed(stages))
        inst = sta.design.instances.get(cur.instance)
        if inst is None:
            return None, None, None
        net_name = inst.connections.get(cur.pin)
        if net_name is None:
            return None, None, None
        driver = sta.design.nets[net_name].driver
        if driver is None:
            return None, None, None
        if driver.is_port:
            return "port", driver.pin, list(reversed(stages))
        cell = sta.graph.cell_of(driver)
        if cell.is_sequential:
            return "reg", None, None
        arcs = [a for a in cell.arcs
                if a.pin == driver.pin and a.timing_type.is_delay]
        if len(arcs) != 1 or arcs[0].sense is TimingSense.NON_UNATE:
            return None, None, None
        stages.append((driver.instance, arcs[0], driver,
                       PinRef(driver.instance, arcs[0].related_pin)))
        cur = PinRef(driver.instance, arcs[0].related_pin)
    return None, None, None


def _extract_output_tables(sta: STA, etm: ExtractedTimingModel,
                           clock_ports) -> None:
    for port in sta.design.output_ports():
        net = sta.design.nets.get(port)
        if net is None or net.driver is None or net.driver.is_port:
            continue
        driver = net.driver
        cell = sta.graph.cell_of(driver)
        if cell.is_sequential:
            continue  # unanchored flop->port output: scalar only
        arcs = [a for a in cell.arcs
                if a.pin == driver.pin and a.timing_type.is_delay]
        if len(arcs) != 1:
            continue
        arc = arcs[0]
        a_in = PinRef(driver.instance, arc.related_pin)
        kind, from_port, stages = _trace_feedthrough_chain(sta, a_in)
        anchor_stage = (driver.instance, arc, driver, a_in)
        if kind == "reg":
            _tabulate_clock_to_out(sta, etm, port, anchor_stage)
        elif kind == "port" and from_port not in clock_ports:
            _tabulate_feedthrough(
                sta, etm, port, from_port, stages + [anchor_stage])


def _tabulate_clock_to_out(sta: STA, etm: ExtractedTimingModel, port: str,
                           anchor_stage) -> None:
    """Clock->out arrival/slew at the output anchor as f(load).

    Arrivals at the anchor input come from the completed propagation
    (they bake in the whole launch path); only the final stage is
    re-evaluated per load sample. Bilinear interpolation at fixed slew
    is linear in load, so sampling the arc's own load axis is exact.
    """
    inst_name, arc, a_out, a_in = anchor_stage
    spec_name = None
    origin = None
    for d in DIRECTIONS:
        if sta.prop.has(a_in, d):
            origin = sta._origin(a_in, d, "late")
            break
    if origin is not None and origin.is_port:
        spec = sta.constraints.clock_for_port(origin.pin)
        if spec is not None:
            spec_name = spec.name
    if spec_name is None:
        return
    spec = sta.constraints.clocks[spec_name]
    depth = sta.graph.data_depth.get(a_out, 1)
    is_clock = a_in in sta.graph.clock_pins
    f_late = sta.derates.factor(is_clock, "late", depth, inst_name)

    axis = _densify(
        x for t in arc.timing.values() for x in t.delay.index_2
    )
    entry = etm.ports.setdefault(port, EtmPort(name=port))
    for d_out in DIRECTIONS:
        if d_out not in arc.timing:
            continue
        delays: List[float] = []
        slews: List[float] = []
        for load in axis:
            worst = -math.inf
            worst_slew = 0.0
            for d_in in DIRECTIONS:
                if not sta.prop.has(a_in, d_in):
                    continue
                if d_out not in arc.sense.output_directions(d_in):
                    continue
                arr = sta.prop.at(a_in, d_in)
                delay, slew = arc.delay_and_slew(
                    d_out, arr.slew_late, load)
                worst = max(worst, arr.late + delay * f_late)
                worst_slew = max(worst_slew, slew)
            if math.isinf(worst):
                return
            delays.append(worst - spec.source_latency)
            slews.append(worst_slew)
        entry.clock_to_out_timing[d_out] = ArcTiming(
            delay=LookupTable2D(CSLEW_AXIS, tuple(axis),
                                [delays, delays]),
            slew=LookupTable2D(CSLEW_AXIS, tuple(axis),
                               [slews, slews]),
        )
    if entry.clock_to_out_timing:
        entry.clock = spec_name
        entry.load_validity = (axis[0], axis[-1])
        etm.boundary_pins[port] = str(a_out)


def _tabulate_feedthrough(sta: STA, etm: ExtractedTimingModel, port: str,
                          from_port: str, stages) -> None:
    """Compose a port->port combinational chain into (slew, load) tables.

    Intermediate stage loads and wire delays are frozen at their values
    in the completed run; the first-stage input slew and last-stage load
    are the table axes. Single-stage chains (the anchored discipline)
    are an exact re-sampling of the anchor's own arc.
    """
    slew_axis = _densify(
        x for t in stages[0][1].timing.values() for x in t.delay.index_1
    )
    load_axis = _densify(
        x for t in stages[-1][1].timing.values() for x in t.delay.index_2
    )
    timing: Dict[str, ArcTiming] = {}
    sense_flips = sum(
        1 for _, a, _, _ in stages if a.sense is TimingSense.NEGATIVE_UNATE
    )
    sense = (TimingSense.POSITIVE_UNATE if sense_flips % 2 == 0
             else TimingSense.NEGATIVE_UNATE)
    # Wire delay and slew degradation from each stage to the next.
    links = []
    for (inst, arc, out_ref, _), nxt in zip(stages, stages[1:]):
        net_name = sta.design.instances[inst].connections[arc.pin]
        wire, _, degrade = net_edge_terms(
            sta.parasitics, NetEdge(net_name, out_ref, nxt[3]), None, SCALAR)
        links.append((wire, degrade))
    for d0 in DIRECTIONS:
        delays: List[List[float]] = []
        slews: List[List[float]] = []
        final_dir = d0
        for s in slew_axis:
            row_d: List[float] = []
            row_s: List[float] = []
            for load in load_axis:
                t = 0.0
                cur_dir, cur_slew = d0, s
                for i, (_, arc, out_ref, _) in enumerate(stages):
                    outs = arc.sense.output_directions(cur_dir)
                    if len(outs) != 1 or outs[0] not in arc.timing:
                        return
                    d_out = outs[0]
                    last = i == len(stages) - 1
                    stage_load = load if last else sta.prop.loads.get(
                        out_ref)
                    if stage_load is None:
                        return
                    delay, out_slew = arc.delay_and_slew(
                        d_out, cur_slew, stage_load)
                    t += delay
                    cur_slew = out_slew
                    cur_dir = d_out
                    if not last:
                        wire, degrade = links[i]
                        t += wire
                        cur_slew += degrade
                row_d.append(t)
                row_s.append(cur_slew)
                final_dir = cur_dir
            delays.append(row_d)
            slews.append(row_s)
        timing[final_dir] = ArcTiming(
            delay=LookupTable2D(tuple(slew_axis), tuple(load_axis), delays),
            slew=LookupTable2D(tuple(slew_axis), tuple(load_axis), slews),
        )
    etm.feedthroughs.append(EtmFeedthroughArc(
        from_port=from_port,
        to_port=port,
        sense=sense,
        timing=timing,
        slew_validity=(slew_axis[0], slew_axis[-1]),
        load_validity=(load_axis[0], load_axis[-1]),
    ))
    # The stub cell needs the launching port's sink pin cap even when the
    # port has no register budgets (a pure feedthrough input).
    first_in = stages[0][3]
    entry = etm.ports.setdefault(from_port, EtmPort(name=from_port))
    if entry.pin_cap is None:
        entry.pin_cap = sta.parasitics.sink_cap(first_in)
    etm.boundary_pins.setdefault(from_port, str(first_in))
    etm.boundary_pins.setdefault(port, str(stages[-1][2]))


def render_etm(etm: ExtractedTimingModel) -> str:
    """Human-readable ETM summary."""
    lines = [
        f"ETM for block {etm.block_name!r} "
        f"(clock {etm.clock_port}, period {etm.period} ps)",
        f"internal WNS: {etm.internal_wns:.2f} ps",
        f"{'port':<12} {'setup budget':>13} {'hold budget':>12} "
        f"{'clk->out':>9} {'cap (fF)':>9}",
    ]
    for name in sorted(etm.ports):
        p = etm.ports[name]
        fmt = lambda v: f"{v:9.2f}" if v is not None else "        -"
        lines.append(
            f"{name:<12} {fmt(p.setup_budget):>13} "
            f"{fmt(p.hold_budget):>12} {fmt(p.clock_to_out):>9} "
            f"{fmt(p.input_cap):>9}"
        )
    n_tabled = sum(1 for p in etm.ports.values()
                   if p.setup_budget_tables or p.clock_to_out_timing)
    if n_tabled or etm.feedthroughs:
        lines.append(
            f"tabulated boundary arcs: {n_tabled} port(s), "
            f"{len(etm.feedthroughs)} feedthrough(s)"
        )
    return "\n".join(lines)
