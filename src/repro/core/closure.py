"""The iterative timing-closure loop (the paper's Fig 1, executable).

Each iteration: run STA, break down the failures, apply the fix list in
the MacDonald ordering — simplest (least disruptive) first — then re-time
and record the trajectory. The loop stops when clean, when the iteration
budget (schedule!) runs out, or when an iteration makes no edits.

The timer side is *incremental* by default (the paper's Comment 1:
physically-aware ECO tooling). The fix order is grouped into stages of
contiguous engines: a stage whose edits all preserve instance
footprints (Vt-swap, sizing) re-times only the edited cells' downstream
cones through a warm :class:`~repro.sta.incremental.IncrementalTimer`;
a stage that changes topology or constraints (buffering, NDR, useful
skew) falls back to the timer's honest full update. Because cone
updates are cheap, the loop re-times *between* stages, so each engine
sees fresh timing instead of compounding fixes on stale slack. One
registered timer per scenario lives in a :class:`~repro.sta.scheduler.
ScenarioTimerPool` and warm-starts across iterations instead of
re-binding a fresh STA each pass; ``ClosureConfig(timing="full")``
runs the same staged loop but rebuilds a fresh STA at every stage
boundary (the benchmark baseline).

The footnote of Fig 1 maps iterations to schedule: "three weeks for the
final pass permits five three-day repair and signoff analysis
iterations" — hence the default ``max_iterations=5`` and the
``days_per_iteration`` bookkeeping in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.beol.corners import BeolCorner
from repro.beol.stack import BeolStack
from repro.errors import ClosureError
from repro.liberty.library import Library
from repro.netlist.design import Design
from repro.netlist.transforms import Edit
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.tracing import Tracer
from repro.runtime.journal import RunJournal
from repro.runtime.supervisor import (
    RetryPolicy,
    SupervisedExecutor,
    SupervisedTask,
)
from repro.sta.analysis import STA
from repro.sta.constraints import Constraints
from repro.sta.kernel import ENGINES, run_on_engine
from repro.sta.propagation import Derates
from repro.sta.reports import TimingReport
from repro.sta.scheduler import ScenarioTimerPool
from repro.core.fixes import (
    FIX_ENGINES,
    FOOTPRINT_PRESERVING_ENGINES,
    FixContext,
    classify_edits,
)

DEFAULT_FIX_ORDER = (
    "vt_swap",
    "sizing",
    "buffering",
    "ndr",
    "useful_skew",
    "slew",
    "hold_buffering",
)

#: Valid ``ClosureConfig.timing`` values.
TIMING_MODES = ("incremental", "full")

#: Histogram buckets for per-stage retime wall clocks, seconds.
WALL_BUCKETS_S = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)


def fix_stages(fix_order: Sequence[str]) -> List[Tuple[str, ...]]:
    """Group a fix order into contiguous retime stages.

    Consecutive footprint-preserving engines share a stage (one cone
    retime absorbs all their swaps); a run of topology-changing engines
    forms its own stage (one full retime absorbs it). The loop re-times
    at every stage boundary, so the grouping controls both how often
    timing refreshes and which retimes can stay cone-limited.
    """
    stages: List[List[str]] = []
    last_fp: Optional[bool] = None
    for name in fix_order:
        fp = name in FOOTPRINT_PRESERVING_ENGINES
        if stages and fp == last_fp:
            stages[-1].append(name)
        else:
            stages.append([name])
        last_fp = fp
    return [tuple(stage) for stage in stages]


@dataclass
class ClosureConfig:
    """Closure-loop policy knobs."""

    max_iterations: int = 5
    fix_order: Sequence[str] = DEFAULT_FIX_ORDER
    budget_per_fix: int = 12
    endpoint_limit: int = 10
    days_per_iteration: float = 3.0
    stop_when_clean: bool = True
    #: "incremental" re-times cone-limited through a warm timer where the
    #: edit set allows it; "full" rebuilds a fresh STA every iteration.
    #: Both modes produce identical trajectories and final reports — the
    #: equivalence suite pins that — so the mode is deliberately *not*
    #: part of the checkpoint fingerprint: either mode may resume a
    #: checkpoint the other wrote.
    timing: str = "incremental"
    #: "reference" walks the object graph; "vector" times full passes
    #: through the compiled array kernel (:mod:`repro.sta.kernel`),
    #: falling back to reference propagation for cone-limited retimes
    #: and scenarios that will not compile. Like ``timing``, the engine
    #: produces identical reports and is excluded from the checkpoint
    #: fingerprint.
    engine: str = "reference"

    def __post_init__(self):
        unknown = [f for f in self.fix_order if f not in FIX_ENGINES]
        if unknown:
            raise ClosureError(
                f"unknown fix engines {unknown}; "
                f"available: {sorted(FIX_ENGINES)}"
            )
        if self.timing not in TIMING_MODES:
            raise ClosureError(
                f"unknown timing mode {self.timing!r}; "
                f"pick from {TIMING_MODES}"
            )
        if self.engine not in ENGINES:
            raise ClosureError(
                f"unknown engine {self.engine!r}; pick from {ENGINES}"
            )


@dataclass
class IterationRecord:
    """One pass of the Fig 1 loop."""

    iteration: int
    wns_setup: float
    tns_setup: float
    wns_hold: float
    setup_violations: int
    hold_violations: int
    slew_violations: int
    edits: Dict[str, int] = field(default_factory=dict)
    #: Fig 1's "breakdown of timing failures" for this iteration.
    breakdown: Dict[str, int] = field(default_factory=dict)
    #: How this iteration's stage edits were re-timed: "incremental"
    #: (cone updates on the warm timer only), "full" (warm timer's full
    #: update only), "mixed" (both kinds of stage), "rebuild" (fresh
    #: STA per stage, the timing="full" mode), or "" when the loop
    #: stopped here (clean / out of edits / aborted).
    retime_engine: str = ""
    #: Cone retimes / full retimes absorbed this iteration's stages.
    incremental_retimes: int = 0
    full_retimes: int = 0
    #: Pins re-propagated across this iteration's cone retimes.
    cone_size: int = 0
    #: Mean cone share of the timing-pin count over this iteration's
    #: incremental retimes (0.0 when none ran).
    cone_fraction: float = 0.0
    #: Wall-clock of the retimes absorbing this iteration's edits, s.
    retime_s: float = 0.0

    @property
    def total_edits(self) -> int:
        return sum(self.edits.values())


@dataclass
class ClosureReport:
    """The loop's trajectory and outcome."""

    iterations: List[IterationRecord]
    final: Optional[TimingReport]
    converged: bool
    schedule_days: float
    #: Set when the loop stopped early because STA kept failing after
    #: every retry: "ErrorClass: message". The trajectory up to the last
    #: healthy iteration is still reported (and journaled).
    aborted: Optional[str] = None
    #: Iterations replayed from a checkpoint journal instead of re-run.
    resumed_iterations: int = 0
    #: Retimes served cone-limited by the warm incremental timer.
    incremental_retimes: int = 0
    #: Retimes that re-ran fully (topology change, fallback, or
    #: timing="full" rebuilds).
    full_retimes: int = 0
    #: incremental_retimes / (incremental_retimes + full_retimes).
    reuse_ratio: float = 0.0
    #: Total wall-clock spent inside timing updates (not fix engines), s.
    timing_wall_s: float = 0.0
    #: Timing-graph pin count of the design under closure.
    pin_count: int = 0

    @property
    def final_wns(self) -> float:
        if self.final is None:  # aborted before any STA pass completed
            return float("nan")
        return self.final.wns("setup")

    @property
    def mean_cone_fraction(self) -> float:
        """Mean cone share of the incremental retimes (0.0 when none)."""
        total = sum(rec.incremental_retimes for rec in self.iterations)
        if not total:
            return 0.0
        weighted = sum(
            rec.cone_fraction * rec.incremental_retimes
            for rec in self.iterations
        )
        return weighted / total

    def trajectory(self, metric: str = "wns_setup") -> List[float]:
        return [getattr(rec, metric) for rec in self.iterations]

    def _retime_label(self, rec: IterationRecord) -> str:
        if rec.incremental_retimes:
            cone = (f"cone {rec.cone_size}p "
                    f"({rec.cone_fraction:.0%})")
            if rec.full_retimes:
                cone += f" + {rec.full_retimes} full"
            return cone
        return rec.retime_engine or "-"

    def render(self) -> str:
        lines = [
            f"{'iter':>4} {'WNS':>9} {'TNS':>11} {'#setup':>7} "
            f"{'#hold':>6} {'#slew':>6} {'edits':>6}  retime"
        ]
        for rec in self.iterations:
            lines.append(
                f"{rec.iteration:>4} {rec.wns_setup:9.2f} "
                f"{rec.tns_setup:11.2f} {rec.setup_violations:>7} "
                f"{rec.hold_violations:>6} {rec.slew_violations:>6} "
                f"{rec.total_edits:>6}  {self._retime_label(rec)}"
            )
        lines.append(
            f"final WNS {self.final_wns:.2f} ps after "
            f"{self.schedule_days:.0f} days "
            f"({'converged' if self.converged else 'NOT closed'})"
        )
        retimes = self.incremental_retimes + self.full_retimes
        if retimes:
            lines.append(
                f"timing: {self.incremental_retimes} incremental / "
                f"{self.full_retimes} full retime(s), reuse "
                f"{self.reuse_ratio:.0%}, mean cone "
                f"{self.mean_cone_fraction:.1%} of {self.pin_count} pins, "
                f"{self.timing_wall_s:.2f} s in timing"
            )
        if self.aborted:
            lines.append(f"ABORTED: {self.aborted}")
        if self.resumed_iterations:
            lines.append(
                f"resumed from checkpoint: {self.resumed_iterations} "
                f"iteration(s) replayed without recomputation"
            )
        return "\n".join(lines)


class ClosureEngine:
    """Drives the Fig 1 loop for one design and scenario.

    The loop is supervised: each timing pass runs as one task on a
    serial :class:`~repro.runtime.supervisor.SupervisedExecutor`, so a
    pass that crashes is retried per ``policy`` (with backoff) before
    the loop gives up; a loop that still cannot analyze returns its
    partial trajectory with :attr:`ClosureReport.aborted` set instead
    of losing everything. A policy with ``timeout_s`` is refused.
    With a ``journal``, each completed iteration checkpoints the
    (records, design) state to disk, and ``run(..., resume=True)``
    continues a killed run from its last completed iteration — only the
    remaining iterations recompute. Live timer state is never
    checkpointed: a resume rebuilds its timer from a full STA pass.
    """

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
        policy: Optional[RetryPolicy] = None,
        journal: Optional[RunJournal] = None,
        fault_injector=None,
    ):
        self.design = design
        self.library = library
        self.constraints = constraints
        self.stack = stack
        self.beol_corner = beol_corner
        self.temp_c = temp_c
        self.derates = derates
        self.si_enabled = si_enabled
        self.policy = policy or RetryPolicy(retries=0)
        if self.policy.timeout_s is not None:
            # A timed-out attempt is abandoned, not stopped: it would go
            # on editing the live design and timers under its retry.
            raise ClosureError(
                "closure timing passes cannot take a timeout_s",
                timeout_s=self.policy.timeout_s,
            )
        self.journal = journal
        self.fault_injector = fault_injector
        #: Warm per-scenario incremental timers (timing="incremental").
        self.timer_pool = ScenarioTimerPool()
        #: Successful timing passes this engine executed — fresh STA
        #: builds *and* warm retimes (the recomputation counter
        #: checkpoint/resume tests assert against).
        self.sta_runs = 0
        #: All timing attempts including failed/retried ones.
        self.sta_attempts = 0

    def _run_fingerprint(self, config: ClosureConfig) -> str:
        """Content identity of one closure run: initial netlist, library,
        constraints and loop policy. Journal entries are keyed by it, so
        a checkpoint recorded for different inputs can never be resumed
        into this run. The timing mode is excluded on purpose —
        incremental and full retiming are equivalent by contract, so
        either may resume the other's checkpoint."""
        from repro.sta.scheduler import (
            constraints_fingerprint,
            design_fingerprint,
            library_fingerprint,
        )

        import hashlib

        h = hashlib.sha256()
        for part in (
            design_fingerprint(self.design),
            library_fingerprint(self.library),
            constraints_fingerprint(self.constraints),
            repr((config.max_iterations, tuple(config.fix_order),
                  config.budget_per_fix, config.endpoint_limit,
                  config.stop_when_clean, self.si_enabled)),
        ):
            h.update(part.encode())
        return h.hexdigest()

    def _build_sta(self) -> STA:
        """One unsupervised STA construction over the current state."""
        return STA(
            self.design,
            self.library,
            self.constraints,
            stack=self.stack,
            beol_corner=self.beol_corner,
            temp_c=self.temp_c,
            derates=self.derates,
            si_enabled=self.si_enabled,
        )

    def _supervised(self, label: str,
                    attempt: Callable[[None, int], object]):
        """Run one timing pass's ``attempt(None, n)`` on a serial
        :class:`SupervisedExecutor`: retry with backoff per ``policy``,
        counted in the ``supervisor.*`` metrics. Returns the
        :class:`TaskExecution`; exhaustion raises :class:`ClosureError`."""
        (execution,) = SupervisedExecutor(
            executor="serial", policy=self.policy,
        ).run([SupervisedTask(label, attempt)])
        self.sta_attempts += execution.attempts
        if not execution.ok:
            last = execution.error_chain[-1].split(": ", 1)[1]
            raise ClosureError(
                f"STA failed after {execution.attempts} attempt(s): {last}",
                stage=label,
                attempts=execution.attempts,
            )
        self.sta_runs += 1
        return execution

    def _run_sta(self, label: str = "sta") -> STA:
        """One supervised STA pass: build and run a fresh STA."""

        def attempt(_payload, attempt_no: int) -> STA:
            if self.fault_injector is not None:
                self.fault_injector.fire(label, attempt_no)
            sta = self._build_sta()
            run_on_engine(sta, self.timer_pool.engine, label)
            return sta

        with obs_tracing.span("sta_build", label=label) as build_span:
            execution = self._supervised(label, attempt)
            build_span.set(attempts=execution.attempts)
        return execution.result

    def _retime(
        self,
        scenario_name: str,
        swapped: Sequence[str],
        topology_changed: bool,
        label: str,
    ) -> Tuple[TimingReport, str]:
        """One supervised warm retime through the timer pool.

        Returns ``(report, engine_used)`` where ``engine_used`` is
        "incremental" or "full". A retry first discards the warm timer
        (the failed attempt's mid-update state is not trusted), so it
        rebuilds from scratch; exhaustion raises :class:`ClosureError`
        exactly like :meth:`_run_sta`.
        """
        pool = self.timer_pool

        def attempt(_payload, attempt_no: int) -> Tuple[TimingReport, str]:
            if attempt_no > 1:
                pool.discard(scenario_name)
            if self.fault_injector is not None:
                self.fault_injector.fire(label, attempt_no)
            before = pool.incremental_retimes
            report = pool.retime(
                scenario_name,
                edited_instances=swapped,
                topology_changed=topology_changed,
                build=self._build_sta,
            )
            return report, ("incremental"
                            if pool.incremental_retimes > before else "full")

        return self._supervised(label, attempt).result

    def run(self, config: Optional[ClosureConfig] = None,
            resume: bool = False) -> ClosureReport:
        """Execute the closure loop (optionally resuming a checkpoint).

        The loop always records into a tracer: the active one when
        observability is armed (CLI ``--trace``, or an enclosing
        :func:`repro.obs.tracing.use` block), else a private throwaway.
        The trajectory's timing fields (``retime_s``,
        ``timing_wall_s``) are backed by those spans, so the report is
        identical either way — armed tracing just also exports the tree.
        """
        tracer = obs_tracing.active_tracer()
        if tracer is None:
            tracer = Tracer()
        with obs_tracing.use(tracer):
            return self._run_traced(config or ClosureConfig(), resume)

    def _run_traced(self, config: ClosureConfig,
                    resume: bool) -> ClosureReport:
        incremental = config.timing == "incremental"
        # The engine is a per-run choice (it lives on the config, like
        # the timing mode), but the pool is per-engine state: point it
        # at this run's engine so fresh builds, warm adoptions and
        # full-mode passes all time through the same path.
        self.timer_pool.engine = config.engine
        scenario_name = self.library.name
        run_key = (
            self._run_fingerprint(config) if self.journal is not None
            else ""
        )
        with obs_tracing.span(
            "closure", design=self.design.name, scenario=scenario_name,
            timing=config.timing, max_iterations=config.max_iterations,
        ):
            records: List[IterationRecord] = []
            resumed = 0
            if resume and self.journal is not None:
                for it in range(config.max_iterations, 0, -1):
                    payload = self.journal.lookup("closure", (run_key, it))
                    if payload is not None:
                        records = list(payload["records"])
                        self.design = payload["design"]
                        # useful_skew edits constraints (per-flop clock
                        # latency), so the checkpoint carries them too.
                        if "constraints" in payload:
                            self.constraints = payload["constraints"]
                        resumed = it
                        break
            first_iteration = resumed + 1

            try:
                sta = self._run_sta(label=f"iter{first_iteration}")
            except ClosureError as exc:
                if not records:
                    raise
                return ClosureReport(
                    iterations=records,
                    final=None,
                    converged=False,
                    schedule_days=len(records) * config.days_per_iteration,
                    aborted=f"{type(exc).__name__}: {exc}",
                    resumed_iterations=resumed,
                )
            if incremental:
                # One registered timer per scenario, warm across
                # iterations.
                self.timer_pool.discard(scenario_name)
                self.timer_pool.adopt(scenario_name, sta)
            aborted: Optional[str] = None
            timing_wall_s = 0.0
            incremental_retimes = 0
            full_retimes = 0

            for iteration in range(first_iteration,
                                   config.max_iterations + 1):
                with obs_tracing.span("iteration", iteration=iteration) \
                        as iteration_span:
                    sta, record, aborted, clean = self._run_iteration(
                        sta, config, records, iteration, scenario_name,
                        incremental, iteration_span,
                    )
                obs_metrics.inc("closure.iterations")
                obs_metrics.inc("closure.edits", record.total_edits)
                if clean and config.stop_when_clean:
                    break
                if record.total_edits == 0:
                    break  # nothing left to try
                timing_wall_s += record.retime_s
                incremental_retimes += record.incremental_retimes
                full_retimes += record.full_retimes
                if aborted is not None:
                    break
                if self.journal is not None:
                    self.journal.record(
                        "closure", (run_key, iteration),
                        {"records": records, "design": self.design,
                         "constraints": self.constraints},
                    )

            final = sta.report
            converged = aborted is None and (
                not final.violations("setup")
                and not final.violations("hold")
                and not final.slew_violations
            )
            retimes = incremental_retimes + full_retimes
            return ClosureReport(
                iterations=records,
                final=final,
                converged=converged,
                schedule_days=len(records) * config.days_per_iteration,
                aborted=aborted,
                resumed_iterations=resumed,
                incremental_retimes=incremental_retimes,
                full_retimes=full_retimes,
                reuse_ratio=(incremental_retimes / retimes
                             if retimes else 0.0),
                timing_wall_s=timing_wall_s,
                pin_count=len(sta.graph.topo_order),
            )

    def _run_iteration(
        self,
        sta: STA,
        config: ClosureConfig,
        records: List[IterationRecord],
        iteration: int,
        scenario_name: str,
        incremental: bool,
        iteration_span,
    ) -> Tuple[STA, IterationRecord, Optional[str], bool]:
        """One pass of the Fig 1 loop: breakdown, fix stages, retimes.

        Returns ``(sta, record, aborted, clean)``. Stage wall-clocks
        come from the ``retime`` spans (PR 3's bespoke
        ``perf_counter`` bookkeeping now reads obs spans), so
        ``record.retime_s`` equals the summed retime-span durations.
        """
        report = sta.report
        breakdown = dict(report.violation_breakdown("setup"))
        for key, count in report.violation_breakdown("hold").items():
            breakdown[f"hold_{key}"] = count
        record = IterationRecord(
            iteration=iteration,
            wns_setup=report.wns("setup"),
            tns_setup=report.tns("setup"),
            wns_hold=report.wns("hold"),
            setup_violations=report.violation_count("setup"),
            hold_violations=report.violation_count("hold"),
            slew_violations=len(report.slew_violations),
            breakdown=breakdown,
        )
        records.append(record)
        iteration_span.set(wns_setup=record.wns_setup)

        clean = (
            not report.violations("setup")
            and not report.violations("hold")
            and not report.slew_violations
        )
        if clean and config.stop_when_clean:
            return sta, record, None, True

        aborted: Optional[str] = None
        cone_fractions: List[float] = []
        for stage in fix_stages(config.fix_order):
            with obs_tracing.span("stage", engines="+".join(stage)):
                # Each stage gets a fresh view: the previous stage's
                # retime already refreshed sta.report, so engines never
                # compound fixes on stale slack.
                ctx = FixContext(
                    design=self.design,
                    library=self.library,
                    sta=sta,
                    report=sta.report,
                    budget=config.budget_per_fix,
                    endpoint_limit=config.endpoint_limit,
                )
                stage_edits: List[Edit] = []
                for fix_name in stage:
                    with obs_tracing.span("fix", engine=fix_name) \
                            as fix_span:
                        edits = FIX_ENGINES[fix_name](ctx)
                        fix_span.set(edits=len(edits))
                    if edits:
                        record.edits[fix_name] = len(edits)
                        stage_edits.extend(edits)
                if not stage_edits:
                    continue
                swapped, topology_changed = classify_edits(stage_edits)
                with obs_tracing.span(
                    "retime", edits=len(stage_edits),
                    topology_changed=topology_changed,
                ) as retime_span:
                    try:
                        if incremental:
                            _, engine_used = self._retime(
                                scenario_name, swapped, topology_changed,
                                label=f"iter{iteration + 1}",
                            )
                            sta = self.timer_pool.get(scenario_name).sta
                        else:
                            sta = self._run_sta(
                                label=f"iter{iteration + 1}"
                            )
                            engine_used = "rebuild"
                    except ClosureError as exc:
                        # Persistent STA failure mid-loop: keep the
                        # trajectory up to the last healthy iteration
                        # instead of losing everything.
                        aborted = f"{type(exc).__name__}: {exc}"
                if aborted is not None:
                    break
                retime_span.set(engine=engine_used)
                record.retime_s += retime_span.duration_s
                obs_metrics.observe("closure.retime_wall_s",
                                    retime_span.duration_s,
                                    WALL_BUCKETS_S)
                pin_count = len(sta.graph.topo_order)
                if engine_used == "incremental":
                    record.incremental_retimes += 1
                    timer = self.timer_pool.get(scenario_name)
                    record.cone_size += timer.last_cone_size
                    cone_fractions.append(
                        timer.last_cone_size / pin_count
                        if pin_count else 0.0
                    )
                else:
                    record.full_retimes += 1
        if cone_fractions:
            record.cone_fraction = (
                sum(cone_fractions) / len(cone_fractions)
            )
        if record.incremental_retimes and record.full_retimes:
            record.retime_engine = "mixed"
        elif record.incremental_retimes:
            record.retime_engine = "incremental"
        elif record.full_retimes:
            record.retime_engine = "full" if incremental else "rebuild"
        return sta, record, aborted, False
