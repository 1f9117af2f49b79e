"""Hierarchical signoff: ETM extraction sharded across worker processes.

The paper's §4 names block-level abstraction (extracted timing models /
interface logic models) as the closure lever that keeps SoC signoff
turnaround flat while design sizes grow: extract each physical block
once, in parallel, then run top-level timing against the small boundary
models instead of the flat netlist. This module implements that flow:

1. :class:`HierScheduler` derives per-block constraints from the top
   constraint set, extracts an :class:`~repro.sta.etm.ExtractedTimingModel`
   per block instance in supervised worker processes (deduplicated by
   design/constraint fingerprint and served from a shared
   :class:`~repro.sta.scheduler.ScenarioResultCache`),
2. :func:`build_stub_cell` / :func:`build_stub_view` turn each ETM into
   a Liberty stub cell — slew/load-indexed boundary constraint arcs,
   clock->out launch arcs, feedthrough arcs — and assemble the top-level
   stub design,
3. the existing :class:`~repro.sta.scheduler.SignoffScheduler` signs off
   the stub design per scenario; block-internal WNS merges in from the
   extraction step.

Time-base algebra (why the stub reproduces the flat run *exactly* on
anchored blocks): ETM budget tables record latest/earliest OK arrivals
on the block's absolute time base, so the stub constraint value must
cancel everything the consuming engine adds around it.  With ``T`` the
clock period, ``L`` the source latency, ``u``/``m`` the uncertainty and
flat margin, and ``delta`` the stub-view wire delay from the top clock
port to the stub CK pin, the engine computes

    required = T + (L + delta) - setup(ds, cs) - u - m

and we need ``required == B(ds)`` (the recorded budget), hence

    setup(ds, cs) = T + L + delta - u - m - B(ds).

Hold is the mirror image; clock->out launch arcs shift by ``-delta``
because the recorded arrival already includes ``L`` but the engine
re-adds ``L + delta`` at the CK pin.  ``delta`` depends on the stub
cell's own CK pin cap, so :func:`build_stub_view` builds twice: once
with ``delta = 0`` to measure the clock nets, once with the measured
values baked in.

Scope: exact agreement holds for flat (non-AOCV) derates on the data
network; clock->out and feedthrough arcs additionally assume unit clock
derate factors (the harness and CLI default).  AOCV's depth dependence
cannot be tabulated at a boundary and is out of scope here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.beol.stack import BeolStack, default_stack
from repro.errors import TimingError
from repro.liberty.arcs import ArcTiming, TimingArc, TimingSense, TimingType
from repro.liberty.cell import Cell, Pin, PinDirection
from repro.liberty.library import Library
from repro.liberty.tables import LookupTable2D
from repro.netlist.design import Design, PinRef, PortDirection
from repro.netlist.hierarchy import HierarchicalDesign
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.parasitics.synthesis import ParasiticExtractor
from repro.runtime.supervisor import (
    RetryPolicy,
    SupervisedExecutor,
    SupervisedTask,
    TaskStatus,
)
from repro.sta.algebra import SCALAR
from repro.sta.constraints import ClockSpec, Constraints
from repro.sta.etm import ExtractedTimingModel, extract_etm
from repro.sta.graph import NetEdge
from repro.sta.mcmm import Scenario
from repro.sta.propagation import Derates, net_edge_terms
from repro.sta.required import pin_slack, required_times
from repro.sta.scheduler import (
    ScenarioResultCache,
    SignoffOutcome,
    SignoffScheduler,
    design_fingerprint,
    fingerprint_pass,
    scenario_fingerprint,
)


# ---------------------------------------------------------------------- #
# per-block constraints


def block_constraints(top: Constraints, clock: ClockSpec,
                      clock_port: str = "clk") -> Constraints:
    """The standalone constraint set a block is extracted under.

    The block sees its own clock (the top spec re-rooted at the block's
    local clock port) and inherits the top's slew defaults and flat
    margins. Input delays stay empty — the extractor requires budgets
    measured from the bare clock edge.
    """
    spec = replace(clock, port=clock_port)
    return Constraints(
        clocks={clock.name: spec},
        default_input_slew=top.default_input_slew,
        max_transition=top.max_transition,
        flat_setup_margin=top.flat_setup_margin,
        flat_hold_margin=top.flat_hold_margin,
    )


# ---------------------------------------------------------------------- #
# extraction worker


def _extract_etm_job(job, attempt: int = 1):
    """Module-level ETM extraction worker (process pools pickle it).

    Runs exactly one full STA per extraction: :func:`extract_etm` reads
    the analysis' retained ``sta.report`` instead of re-running. Thread
    workers share the block design, as signoff workers do (see
    :meth:`Design.bind`).
    """
    block, design, scenario, stack = job
    with obs_tracing.span("etm_extract", block=block, attempt=attempt):
        sta = scenario.sta(design, stack)
        with obs_tracing.span("sta_run", block=block):
            sta.run()
        with obs_tracing.span("etm_tabulate", block=block):
            return extract_etm(sta)


# ---------------------------------------------------------------------- #
# stub cell / stub view construction


def build_stub_cell(
    block_name: str,
    etm: ExtractedTimingModel,
    clock: ClockSpec,
    constraints: Constraints,
    delta: float = 0.0,
) -> Cell:
    """One Liberty stub cell for one block instance.

    ``clock`` is the *top-level* spec driving this instance (its
    uncertainties and the constraint set's flat margins must match the
    ones the ETM was extracted under — :func:`block_constraints`
    guarantees that). ``delta`` is the stub-view clock insertion delay
    from the top clock port to this cell's CK pin; see the module
    docstring for the algebra. A port whose interface could not be
    tabulated (no boundary anchor) is refused with a TimingError.
    """
    cell = Cell(
        name=f"ETM_{block_name}", footprint="etm", size=1.0,
        vt_flavor="etm", area=0.0, leakage=0.0, is_sequential=True,
    )
    ck_cap = etm.clock_caps.get(etm.clock_port, 0.0)
    cell.pins["CK"] = Pin("CK", PinDirection.INPUT, capacitance=ck_cap,
                          is_clock=True)

    c_setup = (clock.period + clock.source_latency + delta
               - clock.uncertainty_setup - constraints.flat_setup_margin)
    c_hold = (clock.source_latency + delta + clock.uncertainty_hold
              + constraints.flat_hold_margin)
    # Pure feedthrough sources carry no register budgets of their own;
    # their timing lives in the feedthrough arc and the checks behind
    # the destination port, so the anchoring gate must not demand tables.
    ft_sources = {ft.from_port for ft in etm.feedthroughs}

    for port, entry in sorted(etm.ports.items()):
        is_input = entry.setup_budget is not None or \
            entry.input_cap is not None
        if is_input:
            cell.pins[port] = Pin(port, PinDirection.INPUT,
                                  capacitance=entry.pin_cap or 0.0)
        else:
            cell.pins[port] = Pin(port, PinDirection.OUTPUT)

        if entry.setup_budget is not None and \
                (entry.setup_budget_tables or port not in ft_sources):
            if not entry.setup_budget_tables:
                raise TimingError(
                    f"block {etm.block_name!r} port {port!r} has no budget "
                    "tables (is the interface anchored?)"
                )
            setup_c: Dict[str, LookupTable2D] = {}
            hold_c: Dict[str, LookupTable2D] = {}
            for d, t in entry.setup_budget_tables.items():
                setup_c[d] = LookupTable2D(
                    t.index_1, t.index_2, c_setup - t.values)
            for d, t in entry.hold_budget_tables.items():
                hold_c[d] = LookupTable2D(
                    t.index_1, t.index_2, t.values - c_hold)
            cell.arcs.append(TimingArc(
                related_pin="CK", pin=port,
                timing_type=TimingType.SETUP_RISING,
                sense=TimingSense.NON_UNATE, constraint=setup_c,
            ))
            if hold_c:
                cell.arcs.append(TimingArc(
                    related_pin="CK", pin=port,
                    timing_type=TimingType.HOLD_RISING,
                    sense=TimingSense.NON_UNATE, constraint=hold_c,
                ))

        if entry.clock_to_out is not None:
            if not entry.clock_to_out_timing:
                raise TimingError(
                    f"block {etm.block_name!r} output {port!r} has no "
                    "clock->out tables (is the interface anchored?)"
                )
            timing: Dict[str, ArcTiming] = {}
            for d, at in entry.clock_to_out_timing.items():
                # Recorded arrivals already exclude the source latency;
                # the engine re-adds L + delta at CK.
                timing[d] = ArcTiming(delay=at.delay.shifted(-delta),
                                      slew=at.slew)
            cell.arcs.append(TimingArc(
                related_pin="CK", pin=port,
                timing_type=TimingType.RISING_EDGE,
                sense=TimingSense.NON_UNATE, timing=timing,
            ))

    for ft in etm.feedthroughs:
        # Feedthrough tables are stored underived; the consuming engine
        # applies its own data derates, so they stay exact for any flat
        # derate setting.
        cell.arcs.append(TimingArc(
            related_pin=ft.from_port, pin=ft.to_port,
            timing_type=TimingType.COMBINATIONAL,
            sense=ft.sense, timing=dict(ft.timing),
        ))
    return cell


def build_stub_design(hier: HierarchicalDesign,
                      cells: Dict[str, Cell]) -> Design:
    """The top netlist with every block replaced by its stub instance.

    Shares :meth:`~repro.netlist.hierarchy.HierarchicalDesign.boundary_nets`
    and ``top_ports`` with ``flatten()``, so boundary wiring — net names,
    port names, stub instance locations (the block origins, where the
    anchors sit) — is identical between the flat and hierarchical views.
    """
    top = Design(f"{hier.name}__etm")
    for name in hier.blocks:
        top.add_port(f"clk_{name}", PortDirection.INPUT)
    for port, direction in hier.top_ports():
        top.add_port(port, direction)
    net_of = hier.boundary_nets()
    for name, block in hier.blocks.items():
        cell = cells[name]
        conns = {"CK": f"clk_{name}"}
        for port in block.design.ports:
            if port == block.clock_port:
                continue
            if port in cell.pins:
                conns[port] = net_of[(name, port)]
        top.add_instance(f"sb_{name}", cell.name, conns,
                         location=block.origin)
    return top


def _clock_deltas(design: Design, library: Library, stack: BeolStack,
                  corner, temp_c: float,
                  blocks: Sequence[str]) -> Dict[str, float]:
    """Wire delay from each top clock port to its stub CK pin."""
    design.bind(library)
    para = ParasiticExtractor(design, library, stack, corner,
                              temp_c=temp_c)
    out = {}
    for name in blocks:
        port = f"clk_{name}"
        edge = NetEdge(port, PinRef("", port), PinRef(f"sb_{name}", "CK"))
        out[name], _, _ = net_edge_terms(para, edge, None, SCALAR)
    return out


def build_stub_view(
    hier: HierarchicalDesign,
    etms: Dict[str, ExtractedTimingModel],
    scenario: Scenario,
    stack: BeolStack,
) -> Tuple[Design, Library]:
    """Stub design + stub library for one scenario.

    Two passes: the stub clock insertion delay ``delta`` depends on the
    stub cell's own CK pin cap and placement, so pass 1 builds with
    ``delta = 0``, measures the clock nets, and pass 2 re-bakes the
    tables with the measured values.
    """
    corner = scenario.corner(stack)
    temp_c = scenario.temperature
    deltas = {name: 0.0 for name in hier.blocks}
    design: Optional[Design] = None
    library: Optional[Library] = None
    for _ in range(2):
        cells = {}
        for name, block in hier.blocks.items():
            spec = scenario.constraints.clocks[f"clk_{name}"]
            cells[name] = build_stub_cell(
                name, etms[name], spec, scenario.constraints,
                delta=deltas[name],
            )
        library = Library(
            name=f"{scenario.library.name}__etm",
            vdd=scenario.library.vdd,
            temp_c=scenario.library.temp_c,
            process=scenario.library.process,
            default_max_transition=scenario.library.default_max_transition,
            cells=dict(scenario.library.cells),
        )
        for cell in cells.values():
            library.add_cell(cell)
        design = build_stub_design(hier, cells)
        deltas = _clock_deltas(design, library, stack, corner, temp_c,
                               list(hier.blocks))
    return design, library


# ---------------------------------------------------------------------- #
# the hierarchical scheduler


@dataclass
class BlockExtraction:
    """Supervision bookkeeping for one block extraction."""

    block: str
    scenario: str
    status: str  # "ok" | "cached" | "retried" | "degraded" | "shared"
    attempts: int = 1
    error: Optional[str] = None


@dataclass
class HierSignoffOutcome:
    """One hierarchical signoff pass.

    ``top`` is the stub-design signoff outcome (None when every scenario
    lost a block extraction); block-internal slacks merge in through
    :meth:`merged_wns`, so a hierarchical verdict never silently drops
    violations buried inside a block.
    """

    top: Optional[SignoffOutcome]
    etms: Dict[Tuple[str, str], ExtractedTimingModel]  # (scenario, block)
    extractions: List[BlockExtraction] = field(default_factory=list)
    degraded: List[str] = field(default_factory=list)  # scenario names
    etm_cache_hits: int = 0
    etm_computed: int = 0
    wall_time_s: float = 0.0
    events: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.degraded and self.top is not None and self.top.ok

    def block_wns(self, scenario: str, mode: str = "setup") -> float:
        worst = math.inf
        for (scen, _), etm in self.etms.items():
            if scen != scenario:
                continue
            internal = (etm.internal_wns if mode == "setup"
                        else etm.internal_hold_wns)
            worst = min(worst, internal)
        return worst

    def merged_wns(self, mode: str = "setup") -> float:
        """Worst slack anywhere: top boundary paths + block internals."""
        worst = math.inf
        if self.top is not None:
            for report in self.top.reports.values():
                worst = min(worst, report.wns(mode))
        for etm in self.etms.values():
            internal = (etm.internal_wns if mode == "setup"
                        else etm.internal_hold_wns)
            worst = min(worst, internal)
        return worst

    @property
    def has_violations(self) -> bool:
        return self.merged_wns("setup") < 0 or self.merged_wns("hold") < 0

    def render(self, mode: str = "setup") -> str:
        lines: List[str] = []
        if self.top is not None:
            lines.append(self.top.render(mode))
        scenarios = sorted({scen for scen, _ in self.etms})
        if scenarios:
            lines.append(f"block-internal WNS ({mode}):")
            for scen in scenarios:
                blocks = sorted(b for s, b in self.etms if s == scen)
                worst = self.block_wns(scen, mode)
                worst_block = min(
                    blocks,
                    key=lambda b: (self.etms[(scen, b)].internal_wns
                                   if mode == "setup" else
                                   self.etms[(scen, b)].internal_hold_wns),
                )
                lines.append(f"  {scen:<24} {worst:10.3f}  "
                             f"(worst block: {worst_block})")
        lines.append(
            f"ETM extractions: {self.etm_computed} computed / "
            f"{self.etm_cache_hits} cached"
        )
        lines.append(f"hier merged WNS ({mode}): "
                     f"{self.merged_wns(mode):.3f}")
        if self.degraded:
            lines.append(
                f"DEGRADED: {len(self.degraded)} scenario(s) lost a "
                f"block extraction: {', '.join(sorted(self.degraded))}"
            )
        return "\n".join(lines)


class HierScheduler:
    """Hierarchical signoff: parallel ETM extraction, then top-level
    signoff over stub models.

    Extraction fans out through a
    :class:`~repro.runtime.supervisor.SupervisedExecutor` (default: a
    process pool — block STA is CPU-bound), deduplicated by
    (design fingerprint, block-constraint fingerprint): two instances of
    the same block under the same clock extract once. Extracted models
    are cached in a :class:`~repro.sta.scheduler.ScenarioResultCache`
    keyed the same way, so a re-signoff with untouched blocks skips
    extraction entirely. The top-level pass reuses
    :class:`~repro.sta.scheduler.SignoffScheduler` unchanged — the stub
    design is just another design.

    Args:
        hier: the hierarchical design.
        scenarios: top-level MCMM views; each must define one clock
            ``clk_<block>`` per block instance (see
            :meth:`HierarchicalDesign.top_constraints`).
        jobs/executor: extraction fan-out width and pool flavor.
        etm_cache: shared cache for extracted models (optional).
        signoff_cache: passed to the top-level scheduler (optional).

    Blocks whose interfaces could not be tabulated (un-anchored ports)
    are refused with a TimingError.
    """

    def __init__(
        self,
        hier: HierarchicalDesign,
        scenarios: Sequence[Scenario],
        stack: Optional[BeolStack] = None,
        jobs: int = 2,
        executor: str = "process",
        etm_cache: Optional[ScenarioResultCache] = None,
        signoff_cache: Optional[ScenarioResultCache] = None,
        policy: Optional[RetryPolicy] = None,
        engine: str = "reference",
    ):
        if not scenarios:
            raise TimingError("hierarchical signoff needs at least one "
                              "scenario")
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise TimingError("scenario names must be unique")
        if not hier.blocks:
            raise TimingError(f"design {hier.name!r} has no blocks")
        for s in scenarios:
            for name in hier.blocks:
                if f"clk_{name}" not in s.constraints.clocks:
                    raise TimingError(
                        f"scenario {s.name!r} defines no clock "
                        f"clk_{name} for block {name!r}"
                    )
        self.hier = hier
        self.scenarios = list(scenarios)
        self.stack = stack or default_stack()
        self.jobs = jobs
        self.executor = executor
        self.etm_cache = etm_cache
        self.signoff_cache = signoff_cache
        self.policy = policy or RetryPolicy()
        self.engine = engine
        #: Block STA extractions actually performed (cache misses after
        #: dedup); the call counter the regression tests assert against.
        self.extraction_runs = 0

    def signoff(self) -> HierSignoffOutcome:
        with fingerprint_pass(), obs_tracing.span(
            "hier_signoff", design=self.hier.name,
            blocks=len(self.hier.blocks), scenarios=len(self.scenarios),
            jobs=self.jobs, executor=self.executor,
        ):
            return self._signoff_traced()

    # ------------------------------------------------------------------ #

    def _plan(self):
        """Deduplicated extraction plan.

        key -> (payload prototype, [(scenario_name, block_name), ...]).
        The key is (block design name, design fingerprint, block-level
        scenario fingerprint) — the same triple the ETM cache uses — with
        the block-scenario *name* pinned to "etm" so two top scenarios
        differing only in name share one extraction. Each block design
        is hashed once, not once per scenario.
        """
        design_fps = {name: design_fingerprint(block.design)
                      for name, block in self.hier.blocks.items()}
        plan: Dict[tuple, dict] = {}
        for s in self.scenarios:
            for name, block in self.hier.blocks.items():
                spec = s.constraints.clocks[f"clk_{name}"]
                bc = block_constraints(s.constraints, spec,
                                       block.clock_port)
                bscen = replace(s, name="etm", constraints=bc)
                key = (block.design.name, design_fps[name],
                       scenario_fingerprint(bscen))
                entry = plan.setdefault(
                    key, {"block": name, "scenario": bscen,
                          "design": block.design, "consumers": []})
                entry["consumers"].append((s.name, name))
        return plan

    def _signoff_traced(self) -> HierSignoffOutcome:
        t0 = time.perf_counter()
        events: List[str] = []
        etms: Dict[Tuple[str, str], ExtractedTimingModel] = {}
        extractions: List[BlockExtraction] = []
        degraded_scenarios: Set[str] = set()

        with obs_tracing.span("etm_plan", blocks=len(self.hier.blocks),
                              scenarios=len(self.scenarios)):
            plan = self._plan()
        cache_hits = 0
        todo_keys = []
        for key, entry in plan.items():
            cached = (self.etm_cache.lookup(*key)
                      if self.etm_cache is not None else None)
            if cached is not None:
                cache_hits += len(entry["consumers"])
                for scen, block in entry["consumers"]:
                    etms[(scen, block)] = cached
                    extractions.append(BlockExtraction(
                        block=block, scenario=scen, status="cached"))
            else:
                todo_keys.append(key)

        supervisor = SupervisedExecutor(
            jobs=self.jobs, executor=self.executor, policy=self.policy,
            on_event=events.append,
        )
        with obs_tracing.span("etm_fanout", count=len(todo_keys)):
            executions = supervisor.run([
                SupervisedTask(
                    name=(f"etm:{plan[key]['consumers'][0][0]}:"
                          f"{plan[key]['block']}"),
                    fn=_extract_etm_job,
                    payload=(plan[key]["block"], plan[key]["design"],
                             plan[key]["scenario"], self.stack),
                )
                for key in todo_keys
            ])
        self.extraction_runs += len(todo_keys)

        for key, execution in zip(todo_keys, executions):
            consumers = plan[key]["consumers"]
            if execution.status is TaskStatus.DEGRADED:
                for scen, block in consumers:
                    degraded_scenarios.add(scen)
                    extractions.append(BlockExtraction(
                        block=block, scenario=scen, status="degraded",
                        attempts=execution.attempts,
                        error=execution.error_text))
                continue
            result = execution.result
            if self.etm_cache is not None:
                self.etm_cache.store(*key, result)
            status = ("ok" if execution.status is TaskStatus.OK
                      else "retried")
            for i, (scen, block) in enumerate(consumers):
                etms[(scen, block)] = result
                extractions.append(BlockExtraction(
                    block=block, scenario=scen,
                    status=status if i == 0 else "shared",
                    attempts=execution.attempts))

        obs_metrics.inc("hier.extractions", len(todo_keys))
        obs_metrics.inc("hier.cache.hits", cache_hits)
        obs_metrics.inc("hier.degraded", len(degraded_scenarios))

        live = [s for s in self.scenarios
                if s.name not in degraded_scenarios]
        top_outcome: Optional[SignoffOutcome] = None
        if live:
            stub_design: Optional[Design] = None
            stub_scenarios: List[Scenario] = []
            with obs_tracing.span("stub_build", scenarios=len(live)):
                for s in live:
                    per_block = {b: etms[(s.name, b)]
                                 for b in self.hier.blocks}
                    design, library = build_stub_view(
                        self.hier, per_block, s, self.stack,
                    )
                    if stub_design is None:
                        stub_design = design
                    stub_scenarios.append(replace(s, library=library))
                    if s.derates != Derates():
                        events.append(
                            f"scenario {s.name}: non-unit derates — "
                            "ETM clock->out/feedthrough arcs assume "
                            "unit clock derate factors"
                        )
            # The stub design is tiny (one instance per block); thread
            # fan-out is plenty and avoids re-pickling stub libraries.
            top = SignoffScheduler(
                stub_scenarios, stack=self.stack,
                jobs=min(self.jobs, len(stub_scenarios)),
                executor="thread" if self.executor == "process"
                else self.executor,
                cache=self.signoff_cache, policy=self.policy,
                keep_going=True, engine=self.engine,
            )
            top_outcome = top.signoff(stub_design)
            degraded_scenarios.update(top_outcome.degraded)

        outcome = HierSignoffOutcome(
            top=top_outcome,
            etms=etms,
            extractions=extractions,
            degraded=sorted(degraded_scenarios),
            etm_cache_hits=cache_hits,
            etm_computed=len(todo_keys),
            wall_time_s=time.perf_counter() - t0,
            events=events,
        )
        return outcome


# ---------------------------------------------------------------------- #
# ETM-vs-flat agreement harness


@dataclass
class AgreementRow:
    """One endpoint compared between the flat and hierarchical views."""

    scenario: str
    block: str
    endpoint: str
    kind: str  # "setup" | "hold" | "output"
    flat: float
    hier: float

    @property
    def divergence(self) -> float:
        return abs(self.flat - self.hier)


@dataclass
class AgreementReport:
    """ETM-vs-flat agreement over every boundary endpoint.

    The gate for the hierarchical flow: ``ok`` requires every compared
    endpoint within ``bound`` picoseconds and no degraded scenario.
    """

    rows: List[AgreementRow]
    bound: float = 1.0
    flat_wall_s: float = 0.0
    hier_wall_s: float = 0.0
    extraction_jobs: int = 1
    degraded: List[str] = field(default_factory=list)

    @property
    def max_divergence(self) -> float:
        return max((r.divergence for r in self.rows), default=math.inf)

    @property
    def ok(self) -> bool:
        return (not self.degraded and bool(self.rows)
                and self.max_divergence <= self.bound)

    def render(self) -> str:
        lines = [
            f"{'scenario':<16} {'block':<8} {'endpoint':<28} "
            f"{'kind':<7} {'flat':>10} {'hier':>10} {'diff':>8}"
        ]
        for r in sorted(self.rows,
                        key=lambda r: (r.scenario, r.block, r.endpoint,
                                       r.kind)):
            lines.append(
                f"{r.scenario:<16} {r.block:<8} {r.endpoint:<28} "
                f"{r.kind:<7} {r.flat:10.3f} {r.hier:10.3f} "
                f"{r.divergence:8.3f}"
            )
        lines.append(
            f"{len(self.rows)} endpoint(s), max divergence "
            f"{self.max_divergence:.3f} ps (bound {self.bound:.3f} ps): "
            f"{'OK' if self.ok else 'FAIL'}"
        )
        if self.flat_wall_s > 0 and self.hier_wall_s > 0:
            lines.append(
                f"flat {self.flat_wall_s:.3f}s vs hier "
                f"{self.hier_wall_s:.3f}s "
                f"({self.extraction_jobs} extraction job(s))"
            )
        if self.degraded:
            lines.append(f"DEGRADED: {', '.join(self.degraded)}")
        return "\n".join(lines)


def _block_of_endpoint(hier: HierarchicalDesign, port_name: str) -> str:
    best = ""
    for name in hier.blocks:
        if port_name.startswith(f"{name}_") and len(name) > len(best):
            best = name
    return best or "?"


def compare_hier_vs_flat(
    hier: HierarchicalDesign,
    scenarios: Sequence[Scenario],
    stack: Optional[BeolStack] = None,
    jobs: int = 2,
    executor: str = "thread",
    bound: float = 1.0,
    etm_cache: Optional[ScenarioResultCache] = None,
) -> AgreementReport:
    """Run both views and compare every boundary endpoint.

    Compared per scenario and block:

    - every tabulated input port: the stub's setup/hold check slack at
      the stub pin vs the flat per-pin slack at the ETM's recorded
      anchor pin (``required_times`` backward pass);
    - every top-level output port: the stub report's output endpoint
      slack vs the flat report's (also covers feedthrough chains).
    """
    stack = stack or default_stack()
    flat = hier.flatten()

    t0 = time.perf_counter()
    flat_view: Dict[str, tuple] = {}
    for s in scenarios:
        sta = s.sta(flat, stack)
        report = sta.run()
        report.scenario = s.name
        flat_view[s.name] = (sta, report,
                             required_times(sta, "late"),
                             required_times(sta, "early"))
    flat_wall = time.perf_counter() - t0

    t1 = time.perf_counter()
    scheduler = HierScheduler(
        hier, scenarios, stack=stack, jobs=jobs, executor=executor,
        etm_cache=etm_cache,
    )
    outcome = scheduler.signoff()
    hier_wall = time.perf_counter() - t1

    rows: List[AgreementRow] = []
    if outcome.top is not None:
        for s in scenarios:
            if s.name not in outcome.top.reports:
                continue
            stub_report = outcome.top.reports[s.name]
            sta, flat_report, req_late, req_early = flat_view[s.name]
            for name in hier.blocks:
                etm = outcome.etms[(s.name, name)]
                for port, entry in etm.ports.items():
                    anchor = etm.boundary_pins.get(port)
                    if anchor is None or "/" not in anchor:
                        continue
                    inst, pin = anchor.split("/", 1)
                    flat_ref = PinRef(f"{name}_{inst}", pin)
                    stub_ref = PinRef(f"sb_{name}", port)
                    if entry.setup_budget_tables:
                        rows.append(AgreementRow(
                            scenario=s.name, block=name,
                            endpoint=str(stub_ref), kind="setup",
                            flat=pin_slack(sta, req_late, flat_ref,
                                           "late"),
                            hier=stub_report.slack_of(stub_ref, "setup"),
                        ))
                    if entry.hold_budget_tables:
                        rows.append(AgreementRow(
                            scenario=s.name, block=name,
                            endpoint=str(stub_ref), kind="hold",
                            flat=pin_slack(sta, req_early, flat_ref,
                                           "early"),
                            hier=stub_report.slack_of(stub_ref, "hold"),
                        ))
            for ep in stub_report.endpoints("setup"):
                if ep.kind != "output":
                    continue
                rows.append(AgreementRow(
                    scenario=s.name,
                    block=_block_of_endpoint(hier, ep.endpoint.pin),
                    endpoint=str(ep.endpoint), kind="output",
                    flat=flat_report.slack_of(ep.endpoint, "setup"),
                    hier=ep.slack,
                ))

    return AgreementReport(
        rows=rows,
        bound=bound,
        flat_wall_s=flat_wall,
        hier_wall_s=hier_wall,
        extraction_jobs=jobs,
        degraded=list(outcome.degraded),
    )
