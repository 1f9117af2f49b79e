"""The STA orchestrator.

:class:`STA` wires together graph construction, parasitic extraction,
arrival propagation and the constraint checks, and produces a
:class:`repro.sta.reports.TimingReport`. It also reconstructs worst paths
(for reporting, PBA and the closure loop's fix targeting).

Setup check (rising-edge flop, launch at cycle 0, capture at cycle 1)::

    slack = (T + clk_early(CK)) - setup(dslew, cslew)
            - uncertainty_setup - flat_margin - data_late(D)

Hold check (same-edge)::

    slack = data_early(D) - clk_late(CK) - hold(dslew, cslew)
            - uncertainty_hold - flat_margin
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.beol.corners import BeolCorner, conventional_corners
from repro.beol.stack import BeolStack, default_stack
from repro.errors import TimingError
from repro.liberty.library import Library
from repro.netlist.design import Design, PinRef
from repro.parasitics.synthesis import ParasiticExtractor
from repro.sta.algebra import SCALAR, TimingAlgebra
from repro.sta.constraints import Constraints
from repro.sta.graph import NetEdge, TimingCheck, TimingGraph
from repro.sta.propagation import (
    DIRECTIONS,
    Derates,
    PropagationResult,
    propagate,
)
from repro.sta.reports import (
    EndpointResult,
    PathPoint,
    SlewViolation,
    TimingPath,
    TimingReport,
)


class STA:
    """One static timing analysis run (one scenario)."""

    def __init__(
        self,
        design: Design,
        library: Library,
        constraints: Constraints,
        stack: Optional[BeolStack] = None,
        beol_corner: Optional[BeolCorner] = None,
        temp_c: Optional[float] = None,
        derates: Optional[Derates] = None,
        si_enabled: bool = False,
        parasitics: Optional[ParasiticExtractor] = None,
        algebra: Optional[TimingAlgebra] = None,
    ):
        self.design = design
        self.library = library
        self.constraints = constraints
        #: The timing-value algebra arrivals/required/slacks live in.
        #: Scalar floats by default; a statistical algebra turns the same
        #: engine into SSTA (:mod:`repro.sta.ssta`).
        self.algebra = algebra or SCALAR
        self.stack = stack or default_stack()
        self.temp_c = temp_c if temp_c is not None else library.temp_c
        self.beol_corner = beol_corner or conventional_corners(self.stack)["typ"]
        self.derates = derates or Derates()
        self.si_enabled = si_enabled
        design.bind(library)
        self.parasitics = parasitics or ParasiticExtractor(
            design, library, self.stack, self.beol_corner, temp_c=self.temp_c
        )
        self.graph = TimingGraph(design, library, constraints)
        self.prop: Optional[PropagationResult] = None
        #: The report of the last full :meth:`run` (None before the first
        #: run). Consumers that only need the completed run's endpoints —
        #: the ETM extractor, the scenario timer pool — read this instead
        #: of paying a second full analysis.
        self.report: Optional[TimingReport] = None
        #: Per-net coupling deltas of the last :meth:`run` (None when SI
        #: is off). The incremental timer reuses these for nets outside
        #: an edit's electrical neighbourhood instead of dropping them.
        self.si_delta: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------ #

    def run(self) -> TimingReport:
        """Propagate arrivals and evaluate every check."""
        si_delta = None
        if self.si_enabled:
            from repro.sta.si import coupling_deltas

            si_delta = coupling_deltas(self.graph, self.parasitics)
        self.si_delta = si_delta
        self.prop = propagate(self.graph, self.parasitics, self.derates,
                              si_delta=si_delta, algebra=self.algebra)
        report = self._report()
        self.report = report
        return report

    # ------------------------------------------------------------------ #
    # checks

    def _origin(self, ref: PinRef, direction: str, mode: str) -> PinRef:
        """Startpoint of the worst late/early path into (ref, direction)."""
        cur, cur_dir = ref, direction
        guard = 0
        while True:
            guard += 1
            if guard > 100000:
                raise TimingError("origin walk did not terminate")
            arr = self.prop.at(cur, cur_dir)
            pred = arr.pred_late if mode == "late" else arr.pred_early
            if pred is None:
                return cur
            edge, src_dir = pred
            cur = edge.driver if isinstance(edge, NetEdge) else edge.src
            cur_dir = src_dir

    def _annotate_origin(self, result: EndpointResult, mode: str) -> None:
        origin = self._origin(result.endpoint, result.data_direction, mode)
        result.startpoint = origin
        result.launched_from_clock = origin in self.graph.clock_pins

    def _clock_of_check(self, check: TimingCheck):
        """The :class:`ClockSpec` governing a check's capture pin.

        Single-clock constraint sets short-circuit to ``the_clock()``
        (no graph walk). With multiple clocks the capture clock is found
        by walking the CK pin's late backpointers to the clock root and
        matching that root against the defined clock ports. Returns None
        when the root is not a constrained clock port. Deliberately
        stateless: :class:`~repro.sta.kernel.CornerView` reuses the
        endpoint methods without running ``STA.__init__``.
        """
        clocks = self.constraints.clocks
        if len(clocks) == 1:
            return self.constraints.the_clock()
        origin = self._origin(check.clock_pin, "rise", "late")
        if not origin.is_port:
            return None
        return self.constraints.clock_for_port(origin.pin)

    def _capture(self, check: TimingCheck):
        """A check's capture side, ``(clock, early, late, slew)``: its
        :class:`ClockSpec`, the rising CK arrivals plus the flop's
        useful-skew latency, and the CK slew. None when no clock arrives
        at CK or its clock cannot be resolved."""
        arr = self.prop.at(check.clock_pin, "rise")
        clock = self._clock_of_check(check) if arr.valid else None
        if clock is None:
            return None
        latency = self.constraints.clock_latency.get(check.instance, 0.0)
        return clock, arr.early + latency, arr.late + latency, arr.slew_late

    def _setup_required(self, check: TimingCheck, capture, direction: str,
                        data_slew: float) -> float:
        """Latest allowed arrival at a setup check's data pin
        (``capture`` is the check's :meth:`_capture`)."""
        clock, clk_early, _, clk_slew = capture
        setup = check.arc.constraint_value(direction, data_slew, clk_slew)
        return (clock.period + clk_early - setup - clock.uncertainty_setup
                - self.constraints.flat_setup_margin)

    def _hold_required(self, check: TimingCheck, capture, direction: str,
                       data_slew: float) -> float:
        """Earliest allowed arrival at a hold check's data pin
        (``capture`` is the check's :meth:`_capture`)."""
        clock, _, clk_late, clk_slew = capture
        hold = check.arc.constraint_value(direction, data_slew, clk_slew)
        return (clk_late + hold + clock.uncertainty_hold
                + self.constraints.flat_hold_margin)

    def _output_required(self, ref: PinRef, clock) -> float:
        """Latest allowed arrival at output port ``ref`` against the
        primary clock."""
        return (clock.period - self.constraints.output_delays.get(ref.pin, 0.0)
                - clock.uncertainty_setup)

    def _setup_endpoints(self) -> List[EndpointResult]:
        out = []
        if not self.constraints.clocks:
            return out
        for check in self.graph.setup_checks():
            result = self._setup_record(check)
            if result is not None:
                out.append(result)
        return out

    def _setup_record(self, check: TimingCheck) -> Optional[EndpointResult]:
        """The worst-direction setup result of one check, or None when
        no data arrives at its data pin."""
        capture = self._capture(check)
        if capture is None:
            raise TimingError(
                f"no capture clock at {check.clock_pin}; is the clock tied?"
            )
        best: Optional[EndpointResult] = None
        for direction in DIRECTIONS:
            if not self.prop.has(check.data_pin, direction):
                continue
            arr = self.prop.at(check.data_pin, direction)
            required = self._setup_required(check, capture, direction,
                                            arr.slew_late)
            slack = required - arr.late
            if best is None or slack < best.slack:
                best = EndpointResult(
                    endpoint=check.data_pin,
                    kind="setup",
                    slack=slack,
                    arrival=arr.late,
                    required=required,
                    data_direction=direction,
                    check=check,
                )
        if best is not None:
            self._annotate_origin(best, "late")
        return best

    def _hold_endpoints(self) -> List[EndpointResult]:
        out = []
        if not self.constraints.clocks:
            return out
        for check in self.graph.hold_checks():
            result = self._hold_record(check)
            if result is not None:
                out.append(result)
        return out

    def _hold_record(self, check: TimingCheck) -> Optional[EndpointResult]:
        """The worst-direction hold result of one check, or None when no
        data arrives at its data pin."""
        capture = self._capture(check)
        if capture is None:
            raise TimingError(
                f"no capture clock at {check.clock_pin}; is the clock tied?"
            )
        best: Optional[EndpointResult] = None
        for direction in DIRECTIONS:
            if not self.prop.has(check.data_pin, direction):
                continue
            arr = self.prop.at(check.data_pin, direction)
            required = self._hold_required(check, capture, direction,
                                           arr.slew_early)
            slack = arr.early - required
            if best is None or slack < best.slack:
                best = EndpointResult(
                    endpoint=check.data_pin,
                    kind="hold",
                    slack=slack,
                    arrival=arr.early,
                    required=required,
                    data_direction=direction,
                    check=check,
                )
        if best is not None:
            self._annotate_origin(best, "early")
        return best

    def _output_endpoints(self) -> List[EndpointResult]:
        out = []
        if not self.constraints.clocks:
            return out
        clock = self.constraints.primary_clock()
        for ref in self.graph.output_port_refs():
            result = self._output_record(ref, clock)
            if result is not None:
                out.append(result)
        return out

    def _output_record(self, ref: PinRef,
                       clock) -> Optional[EndpointResult]:
        """The output port ``ref`` against ``clock`` (the primary clock),
        or None when no data arrives there."""
        direction, late = self.prop.worst_late(ref)
        if direction is None:
            return None
        required = self._output_required(ref, clock)
        result = EndpointResult(
            endpoint=ref,
            kind="output",
            slack=required - late,
            arrival=late,
            required=required,
            data_direction=direction,
        )
        self._annotate_origin(result, "late")
        return result

    def _slew_violations(self) -> List[SlewViolation]:
        default = self._default_max_transition()
        out = []
        for ref in self.graph.topo_order:
            violation = self._slew_record(ref, default)
            if violation is not None:
                out.append(violation)
        return out

    def _default_max_transition(self) -> float:
        """The slew limit of a pin whose library pin sets none."""
        return self.constraints.max_transition or \
            self.library.default_max_transition

    def _slew_record(self, ref: PinRef,
                     default: float) -> Optional[SlewViolation]:
        """The max-transition violation at ``ref``, or None (ports are
        not checked). ``default`` is :meth:`_default_max_transition`."""
        if ref.is_port:
            return None
        pin = self.graph.cell_of(ref).pin(ref.pin)
        limit = pin.max_transition or default
        worst = 0.0
        for direction in DIRECTIONS:
            if self.prop.has(ref, direction):
                worst = max(worst, self.prop.at(ref, direction).slew_late)
        if worst > limit:
            return SlewViolation(ref=ref, slew=worst, limit=limit)
        return None

    def _report(
        self,
        setup: Optional[List[EndpointResult]] = None,
        hold: Optional[List[EndpointResult]] = None,
        slew_violations: Optional[List[SlewViolation]] = None,
    ) -> TimingReport:
        """Assemble a report, evaluating in full each list not given.

        Every engine's report goes through here. ``setup`` lists the
        setup checks in graph order followed by the output ports, and
        ``slew_violations`` is in topological order: the report's stable
        sort then breaks slack ties the same way whichever path
        evaluated the records.
        """
        if setup is None:
            setup = self._setup_endpoints() + self._output_endpoints()
        if hold is None:
            hold = self._hold_endpoints()
        if slew_violations is None:
            slew_violations = self._slew_violations()
        return TimingReport(
            setup=setup,
            hold=hold,
            slew_violations=slew_violations,
            scenario=self.library.name,
        )

    # ------------------------------------------------------------------ #
    # path reconstruction

    def worst_path(self, endpoint: EndpointResult) -> TimingPath:
        """Reconstruct the worst path into an endpoint via backpointers."""
        if self.prop is None:
            raise TimingError("run() must be called before worst_path()")
        mode = "hold" if endpoint.kind == "hold" else "setup"
        return self.path_to(endpoint.endpoint, endpoint.data_direction, mode)

    def path_to(self, ref: PinRef, direction: str, mode: str) -> TimingPath:
        """The worst late (setup) or early (hold) path into (ref, dir)."""
        if self.prop is None:
            raise TimingError("run() must be called before path_to()")
        chain: List[Tuple[PinRef, str]] = []
        edges: List[Optional[object]] = []
        cur, cur_dir = ref, direction
        guard = 0
        while True:
            guard += 1
            if guard > 100000:
                raise TimingError("path reconstruction did not terminate")
            arr = self.prop.at(cur, cur_dir)
            pred = arr.pred_late if mode == "setup" else arr.pred_early
            chain.append((cur, cur_dir))
            edges.append(pred)
            if pred is None:
                break
            edge, src_dir = pred
            cur = edge.driver if isinstance(edge, NetEdge) else edge.src
            cur_dir = src_dir
        chain.reverse()
        edges.reverse()

        points: List[PathPoint] = []
        prev_time: Optional[float] = None
        for (node, node_dir), pred in zip(chain, edges[1:] + [None]):
            arr = self.prop.at(node, node_dir)
            time = arr.late if mode == "setup" else arr.early
            slew = arr.slew_late if mode == "setup" else arr.slew_early
            incr = 0.0 if prev_time is None else time - prev_time
            incoming = None
            if points:
                incoming = edges[len(points)]
            kind = "start"
            if incoming is not None:
                kind = "net" if isinstance(incoming[0], NetEdge) else "cell"
            points.append(
                PathPoint(ref=node, direction=node_dir, arrival=time,
                          slew=slew, increment=incr, kind=kind)
            )
            prev_time = time
        return TimingPath(points=points, mode=mode)
