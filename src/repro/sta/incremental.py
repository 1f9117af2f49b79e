"""Incremental timing updates for ECO loops.

The paper's Comment 1 celebrates physically-aware ECO tooling; the timer
side of that story is *incrementality* — after a cell swap or resize,
only the affected cone needs re-timing, not the whole design. This module
provides that for topology-preserving edits (Vt-swap, resize): it
invalidates the downstream cone of the edited cells (including the
drivers of their input nets, whose loads changed) and re-propagates just
those pins, reusing stored arrivals everywhere else.

Topology-changing edits (buffer insertion, NDR promotion, useful skew)
fall back to a full rebuild — the honest boundary real incremental
timers also draw, just further out. :meth:`IncrementalTimer.full_update`
really is a full rebuild: it re-binds the design, drops cached
parasitics and reconstructs the timing graph, so it stays correct even
after instances and nets were added.

Guarantees the closure loop leans on:

- **Equivalence** — an incremental update produces the same report a
  from-scratch :meth:`~repro.sta.analysis.STA.run` would (including
  coupling deltas when SI is enabled; touched nets are re-evaluated,
  untouched nets keep their stored deltas).
- **Atomicity** — :meth:`IncrementalTimer.update_cells` validates every
  edit against the graph *before* mutating anything; an edit the timer
  cannot absorb raises :class:`~repro.errors.TimingError` with the
  graph, arrivals and report untouched, so the caller can fall back to
  :meth:`full_update` on a still-usable timer.
- **No-op updates are free** — an empty edit list returns the existing
  report without re-timing anything.

Cost model: a cone update costs the edited cone plus one pass over the
endpoint list. The timer keeps the last report's records indexed (one
per check, one per output port, one slew violation per pin) and
re-evaluates only those whose pins the cone reaches: the cone is closed
under fan-out, so every other record has the same fan-in, arrivals,
backpointers and arc as before. Rebinds are planned from a per-instance
index of cell-edge slots and checks, and the cone re-propagates in a
stored topological order. The indexes are built once per timing graph
(at construction and after :meth:`IncrementalTimer.full_update`).
"""

from __future__ import annotations

from collections import deque
from copy import copy
from itertools import chain
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import TimingError
from repro.netlist.design import PinRef
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.liberty.cell import PinDirection
from repro.sta.analysis import STA
from repro.sta.graph import CellEdge, NetEdge, TimingGraph
from repro.sta.kernel import ENGINES, run_on_engine
from repro.sta.propagation import (
    DIRECTIONS,
    _propagate_cell_edge,
    _propagate_net_edge,
)
from repro.sta.reports import EndpointResult, SlewViolation, TimingReport


class IncrementalTimer:
    """Wraps a run STA and applies cone-limited updates after cell edits.

    ``engine`` is the engine :meth:`full_update` re-runs on. Cone updates
    always use the reference propagation over ``sta.prop``, which either
    engine leaves materialized, so the timer holds no compiled kernel.
    """

    def __init__(self, sta: STA, engine: str = "reference"):
        if sta.prop is None:
            raise TimingError("run the STA once before incremental updates")
        if engine not in ENGINES:
            raise TimingError(
                f"unknown engine {engine!r}; pick from {ENGINES}"
            )
        self.sta = sta
        self.engine = engine
        self.full_updates = 0
        self.incremental_updates = 0
        self.last_cone_size = 0
        # The graph and the report the timer's indexes describe.
        self._graph: Optional[TimingGraph] = None
        self._indexed: Optional[TimingReport] = None
        self._sync()

    # ------------------------------------------------------------------ #

    def update_cells(self, instance_names: Iterable[str]) -> TimingReport:
        """Re-time after swaps/resizes of the named instances.

        The edited instances must still exist with the same pins (same
        footprint). Returns a fresh report; ``sta.prop`` is updated in
        place so path reconstruction stays valid.

        An empty edit list is a no-op: the existing report is returned.

        Raises :class:`~repro.errors.TimingError` — without mutating the
        graph or arrivals — when an edit changed an instance's arc set
        (a full rebuild is needed); the timer stays usable.
        """
        sta = self.sta
        names = list(dict.fromkeys(instance_names))  # de-dupe, keep order
        self._sync()
        if not names:
            # No-op pass: nothing changed, so every stored arrival is
            # still valid. Serve the existing report; the cone is empty.
            self.last_cone_size = 0
            return sta.report

        with obs_tracing.span("retime_cone", design=sta.design.name,
                              edited=len(names)) as cone_span:
            # Phase 1 (may raise, mutates nothing): plan the rebinds.
            plans = [self._plan_instance_edges(name) for name in names]

            # Phase 2 (infallible): the edit is absorbable; apply the
            # rebinds.
            for plan in plans:
                self._apply_instance_edges(plan)

            seeds: Set[PinRef] = set()
            touched_nets: Set[str] = set()
            for name in names:
                inst = sta.design.instance(name)
                cell = sta.library.cell(inst.cell_name)
                for pin in cell.pins.values():
                    ref = PinRef(name, pin.name)
                    net_name = inst.net_of(pin.name)
                    touched_nets.add(net_name)
                    if pin.direction is PinDirection.OUTPUT:
                        seeds.add(ref)
                    else:
                        # Input cap changed: the driving net's delay and
                        # its driver's load change too.
                        sta.parasitics.invalidate(net_name)
                        net = sta.design.get_net(net_name)
                        if net.driver is not None and not net.driver.is_port:
                            seeds.add(net.driver)
                        seeds.add(ref)

            si_delta = self._refresh_si_deltas(touched_nets)

            affected = self._downstream_cone(seeds)
            self.last_cone_size = len(affected)
            self.incremental_updates += 1
            obs_metrics.inc("sta.retime.incremental")
            obs_metrics.observe("sta.retime.cone_size", len(affected))

            # Invalidate and recompute in topological order. A pin with
            # no edges is not in the order and has nothing to propagate.
            pos = self._topo_pos
            cone = sorted((ref for ref in affected if ref in pos),
                          key=pos.__getitem__)
            for ref in affected:
                for direction in DIRECTIONS:
                    sta.prop.arrivals.pop((ref, direction), None)
            for ref in cone:
                for edge in sta.graph.in_edges.get(ref, []):
                    if isinstance(edge, NetEdge):
                        _propagate_net_edge(sta.parasitics, sta.prop, edge,
                                            si_delta, sta.algebra)
                    else:
                        _propagate_cell_edge(sta.graph, sta.parasitics,
                                             sta.prop, edge, sta.derates,
                                             sta.algebra)
            endpoints, slew_pins = self._refresh_records(affected, cone)
            cone_span.set(cone=len(affected), endpoints=endpoints,
                          slew_pins=slew_pins)
            report = self._assemble()
            sta.report = report
            self._indexed = report
            return report

    def full_update(self) -> TimingReport:
        """Fall back to a complete, honest re-run.

        Unlike the cone update this tolerates *topology* changes: the
        design is re-bound, cached parasitics are dropped and the timing
        graph is rebuilt before re-propagating, so buffer insertions,
        NDR promotions and constraint edits are all absorbed. The re-run
        goes through :func:`~repro.sta.kernel.run_on_engine` on the
        timer's engine; no compiled kernel outlives it.
        """
        sta = self.sta
        with obs_tracing.span("full_update", design=sta.design.name):
            self.full_updates += 1
            self.last_cone_size = 0
            obs_metrics.inc("sta.retime.full")
            sta.design.bind(sta.library)
            sta.parasitics.invalidate()
            sta.graph = TimingGraph(sta.design, sta.library, sta.constraints)
            report = run_on_engine(sta, self.engine, sta.library.name)
            self._sync()
            return report

    # ------------------------------------------------------------------ #

    def _refresh_si_deltas(self, touched_nets: Set[str]) -> Dict[str, float]:
        """Coupling deltas for the re-propagation, post-edit.

        Stored deltas from the last full run are carried over for every
        net the edit could not have changed; nets electrically touched by
        the edit (driver swapped, or a load pin cap changed) are
        re-evaluated. With SI disabled this is just the empty dict.
        """
        sta = self.sta
        if not sta.si_enabled:
            return {}
        from repro.sta.si import net_coupling_delta

        si_delta = dict(sta.si_delta or {})
        for net_name in touched_nets:
            delta = net_coupling_delta(
                sta.graph, sta.parasitics, sta.design.get_net(net_name)
            )
            if delta > 0.0:
                si_delta[net_name] = delta
            else:
                si_delta.pop(net_name, None)
        sta.si_delta = si_delta
        return si_delta

    # Rebind plan entries: (container, index, replacement).
    _Plan = List[Tuple[list, int, object]]

    def _plan_instance_edges(self, name: str) -> "_Plan":
        """Plan pointing an edited instance's graph edges at its *new*
        cell's arcs, without mutating the graph.

        A swap changes ``instance.cell_name`` but the graph's CellEdge
        objects still hold the old cell's tables; the plan rebinds them
        (and the instance's setup/hold checks) by
        (related_pin, pin, type). Raises :class:`TimingError` when the
        new cell's arc set differs — in which case *nothing* has been
        mutated yet and a full rebuild is the caller's move.
        """
        sta = self.sta
        inst = sta.design.instance(name)
        cell = sta.library.cell(inst.cell_name)
        arc_map = {
            (arc.related_pin, arc.pin, arc.timing_type): arc
            for arc in cell.arcs
        }

        replaced: Dict[int, CellEdge] = {}

        def rebind(edge: CellEdge) -> CellEdge:
            key = (edge.arc.related_pin, edge.arc.pin, edge.arc.timing_type)
            new_arc = arc_map.get(key)
            if new_arc is None:
                raise TimingError(
                    f"swap on {name} changed the arc set "
                    f"({key} missing in {cell.name}); full rebuild needed"
                )
            return CellEdge(instance=name, arc=new_arc)

        plan: IncrementalTimer._Plan = []
        for edges, i in self._edge_slots.get(name, ()):
            edge = edges[i]
            if id(edge) not in replaced:
                replaced[id(edge)] = rebind(edge)
            plan.append((edges, i, replaced[id(edge)]))
        for i in self._checks_of.get(name, ()):
            check = sta.graph.checks[i]
            key = (check.arc.related_pin, check.arc.pin,
                   check.arc.timing_type)
            new_arc = arc_map.get(key)
            if new_arc is None:
                raise TimingError(
                    f"swap on {name} changed the constraint arcs; "
                    "full rebuild needed"
                )
            plan.append((
                sta.graph.checks, i,
                type(check)(
                    instance=name,
                    data_pin=check.data_pin,
                    clock_pin=check.clock_pin,
                    arc=new_arc,
                ),
            ))
        return plan

    @staticmethod
    def _apply_instance_edges(plan: "_Plan") -> None:
        for container, index, replacement in plan:
            container[index] = replacement

    def _downstream_cone(self, seeds: Set[PinRef]) -> Set[PinRef]:
        affected: Set[PinRef] = set(seeds)
        queue = deque(seeds)
        while queue:
            ref = queue.popleft()
            for edge in self.sta.graph.out_edges.get(ref, []):
                dst = edge.sink if isinstance(edge, NetEdge) else edge.dst
                if dst not in affected:
                    affected.add(dst)
                    queue.append(dst)
        return affected

    # ------------------------------------------------------------------ #
    # indexes and records

    def _sync(self) -> None:
        """Index the STA's graph and report unless they are the ones the
        indexes describe (a full update or an outside ``STA.run``
        replaces them). A missing report is evaluated in full first."""
        sta = self.sta
        if sta.graph is not self._graph:
            self._index_graph()
            self._indexed = None
        if sta.report is None:
            sta.report = sta._report()
        if sta.report is not self._indexed:
            self._index_report()

    def _index_graph(self) -> None:
        """Per-graph indexes: each pin's topological position, each
        output port's position, each instance's cell-edge slots
        (adjacency list, index) and check positions, and the checks at
        each data or clock pin."""
        graph = self.sta.graph
        self._graph = graph
        self._topo_pos: Dict[PinRef, int] = {
            ref: i for i, ref in enumerate(graph.topo_order)
        }
        self._output_pos: Dict[PinRef, int] = {
            ref: i for i, ref in enumerate(graph.output_port_refs())
        }
        self._edge_slots: Dict[str, List[Tuple[list, int]]] = {}
        for adjacency in (graph.in_edges, graph.out_edges):
            for edges in adjacency.values():
                for i, edge in enumerate(edges):
                    if isinstance(edge, CellEdge):
                        self._edge_slots.setdefault(
                            edge.instance, []).append((edges, i))
        self._checks_of: Dict[str, List[int]] = {}
        self._checks_at: Dict[PinRef, List[int]] = {}
        for i, check in enumerate(graph.checks):
            self._checks_of.setdefault(check.instance, []).append(i)
            self._checks_at.setdefault(check.data_pin, []).append(i)
            self._checks_at.setdefault(check.clock_pin, []).append(i)

    def _index_report(self) -> None:
        """Take the records of ``sta.report`` without re-evaluating any:
        one per check (by position in ``graph.checks``) and per output
        port (by position in ``graph.output_port_refs()``), None where
        no data arrives, and the slew violations by pin.

        The timer keeps copies: a caller that mutates a report it was
        handed cannot reach the records later reports are built from.
        """
        sta = self.sta
        report = sta.report
        position = {id(check): i for i, check in enumerate(sta.graph.checks)}
        self._check_records: List[Optional[EndpointResult]] = \
            [None] * len(sta.graph.checks)
        self._output_records: List[Optional[EndpointResult]] = \
            [None] * len(self._output_pos)
        for record in chain(report.setup, report.hold):
            if record.kind == "output":
                index = self._output_pos[record.endpoint]
                self._output_records[index] = copy(record)
            else:
                self._check_records[position[id(record.check)]] = \
                    copy(record)
        self._slews: Dict[PinRef, SlewViolation] = {
            v.ref: copy(v) for v in report.slew_violations
        }
        self._indexed = report

    def _refresh_records(self, affected: Set[PinRef],
                         cone: List[PinRef]) -> Tuple[int, int]:
        """Re-evaluate the records an update's cone reaches: the checks
        with a data or clock pin in ``affected``, and the output ports
        and the slews of the pins in ``cone`` (``affected`` in
        topological order). Returns the number of endpoint records
        evaluated and of pins slew-checked.
        """
        sta = self.sta
        default = sta._default_max_transition()
        pins = [ref for ref in cone if not ref.is_port]
        for ref in pins:
            violation = sta._slew_record(ref, default)
            if violation is None:
                self._slews.pop(ref, None)
            else:
                self._slews[ref] = violation
        if not sta.constraints.clocks:
            return 0, len(pins)
        checks = {i for ref in affected for i in self._checks_at.get(ref, ())}
        for i in checks:
            check = sta.graph.checks[i]
            self._check_records[i] = (
                sta._setup_record(check) if check.is_setup
                else sta._hold_record(check)
            )
        clock = sta.constraints.primary_clock()
        outputs = [ref for ref in cone if ref in self._output_pos]
        for ref in outputs:
            self._output_records[self._output_pos[ref]] = \
                sta._output_record(ref, clock)
        return len(checks) + len(outputs), len(pins)

    def _assemble(self) -> TimingReport:
        """A report of copies of the held records, in the order a full
        run lists them."""
        checks = [r for r in self._check_records if r is not None]
        setup = [copy(r) for r in checks if r.kind == "setup"]
        setup += [copy(r) for r in self._output_records if r is not None]
        hold = [copy(r) for r in checks if r.kind == "hold"]
        pos = self._topo_pos
        slews = [copy(v) for v in
                 sorted(self._slews.values(), key=lambda v: pos[v.ref])]
        return self.sta._report(setup, hold, slews)
