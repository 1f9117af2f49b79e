"""Campaign dispatch: every configuration through the supervised runtime.

The runner turns a :class:`~repro.campaign.spec.CampaignSpec` expansion
into recorded rows of a :class:`~repro.campaign.store.CampaignStore`:

- **chunked waves** — configs dispatch through a
  :class:`~repro.runtime.supervisor.SupervisedExecutor` in fixed-size
  chunks, each chunk's results committed to SQLite before the next
  starts, so a SIGKILL loses at most one in-flight chunk and ``resume``
  (a fingerprint set-difference) continues exactly where the DB stops;
- **supervision reuse** — worker crashes retry per the
  :class:`~repro.runtime.supervisor.RetryPolicy`, exhausted configs are
  quarantined into the DB's ``failures`` log (retried on resume) while
  the campaign finishes;
- **tracing** — the supervised executor records every config attempt
  into a private worker tracer and ingests the succeeding attempt's
  spans under the wave span, so ``--trace`` shows the whole campaign;
- **daemon dispatch** — with a :class:`DaemonTarget`, each config runs
  as an overlay session against a warm
  :class:`~repro.serve.server.TimingDaemon`: recipe edits go up as one
  ECO batch, timing (and, for PST factors, the ``ssta`` op) comes back
  from the daemon's warm timers, power/area are rolled up locally on
  the edited copy;
- **learned triage** — :meth:`CampaignRunner.run_triaged` runs a spread
  training wave, fits the :mod:`~repro.campaign.surrogate`, and spends
  the remaining signoff budget on the configs predicted closest to the
  Pareto front, recording predictions for everything it skips.

What one configuration *means* (the factor vocabulary) is defined here:
see ``DEFAULT_LEVELS`` and ``_run_config_job``. A config is scored under
two MCMM views — nominal ``tt_typ`` and an aged/derated ``ss_aged``
(aging corner + flat late derate, the paper's Fig 9 axes) — with
margin-adjusted WNS/TNS, a power/area rollup at the swept period, and
optionally a canonical-SSTA yield after PST tuning with range tau.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.campaign.blocks import block_names, build_block, probe_features
from repro.campaign.pareto import Axis, DEFAULT_AXES
from repro.campaign.spec import (
    CampaignConfig,
    CampaignSpec,
    Factor,
    spread_indices,
)
from repro.campaign.store import CampaignStore
from repro.campaign.surrogate import MODELS, Surrogate, triage_order
from repro.errors import CampaignError, NetlistError
from repro.liberty import LibraryCondition, make_library
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.runtime.supervisor import (
    RetryPolicy,
    SupervisedExecutor,
    SupervisedTask,
    TaskStatus,
)
from repro.sta.kernel import ENGINES

#: Every level a configuration can carry, with its default. Factors
#: outside this vocabulary are rejected up front (a typo'd factor name
#: must not silently sweep nothing).
DEFAULT_LEVELS: Dict[str, Any] = {
    "block": "soc_ctrl",      # synthetic SoC block (repro.campaign.blocks)
    "period": 500.0,          # clock period, ps
    "aging_mv": 0.0,          # BTI Vt shift on the aged corner, mV
    "derate_late": 1.0,       # flat data-late derate on the aged corner
    "margin_ps": 0.0,         # signoff margin subtracted from setup slack
    "recipe": "none",         # ECO/closure recipe applied before signoff
    "recipe_budget": 8,       # max edits the recipe may spend
    "tune_tau": 0.0,          # PST tuning range, ps (0 = no SSTA pass)
    "engine": "reference",    # timing engine for the signoff scenarios
    "input_delay": 40.0,      # input arrival after clock, ps
    "activity": 0.15,         # switching activity for dynamic power
    "ssta_samples": 384,      # samples for the yield estimate
    "yield_target": 0.99,     # PST tuning target
}

RECIPES = ("none", "lvt_crit", "upsize_crit", "downsize_cold")

#: Levels a daemon-dispatched campaign may not sweep: they change the
#: daemon-side design/scenario definitions, which are fixed at daemon
#: startup. ``margin_ps`` needs endpoint slacks the wire rows do not
#: carry, so it must stay 0.
_DAEMON_FIXED = ("block", "aging_mv", "derate_late", "engine", "margin_ps")


def validate_spec(spec: CampaignSpec) -> None:
    """Reject unknown factor names and unrunnable levels up front."""
    names = [f.name for f in spec.factors] + list(spec.base)
    for name in names:
        if name not in DEFAULT_LEVELS:
            raise CampaignError(
                f"unknown factor {name!r}",
                known=",".join(sorted(DEFAULT_LEVELS)),
            )
    for factor in spec.factors:
        if factor.name == "recipe":
            for level in factor.levels:
                if level not in RECIPES:
                    raise CampaignError(
                        f"unknown recipe {level!r}",
                        recipes=",".join(RECIPES),
                    )
        if factor.name == "block":
            for level in factor.levels:
                if level not in block_names():
                    raise CampaignError(
                        f"unknown block {level!r}",
                        blocks=",".join(block_names()),
                    )
        if factor.name == "engine":
            for level in factor.levels:
                if level not in ENGINES:
                    raise CampaignError(
                        f"unknown engine {level!r}",
                        engines=",".join(ENGINES),
                    )


def resolve_levels(levels: Dict[str, Any]) -> Dict[str, Any]:
    resolved = dict(DEFAULT_LEVELS)
    resolved.update(levels)
    return resolved


def demo_spec(name: str = "fig9_sweep", fraction: float = 1.0,
              seed: int = 20150608) -> CampaignSpec:
    """The built-in Fig-9-style sweep (also the benchmark campaign).

    288 configurations: 3 blocks x 3 periods x 4 closure recipes x
    {no PST, tau=30ps} x 2 signoff margins x 2 late derates — the
    margin/aging/recipe tradeoff space of the paper's Section 4, sized
    so a laptop-class full sweep finishes in minutes and a fractional
    or triaged run in well under one.
    """
    from repro.campaign.blocks import block_names

    return CampaignSpec(
        name=name,
        factors=[
            Factor("block", tuple(block_names())),
            Factor("period", (420.0, 460.0, 500.0)),
            Factor("recipe", RECIPES),
            Factor("tune_tau", (0.0, 30.0)),
            Factor("margin_ps", (0.0, 15.0)),
            Factor("derate_late", (1.0, 1.08)),
        ],
        base={"ssta_samples": 128},
        fraction=fraction,
        seed=seed,
    )


# ---------------------------------------------------------------------- #
# worker-side machinery (module level: process pools must pickle it)

#: Library factory results per PVT+aging condition. Pool workers are
#: reused across tasks, so each worker process pays for each distinct
#: condition once, not once per config.
_LIB_CACHE: Dict[Tuple, Any] = {}


def _library(process: str, vdd: float, temp_c: float, aging_mv: float):
    key = (process, round(vdd, 6), round(temp_c, 3), round(aging_mv, 6))
    library = _LIB_CACHE.get(key)
    if library is None:
        library = make_library(LibraryCondition(
            process=process, vdd=vdd, temp_c=temp_c,
            vt_shift_aging=aging_mv / 1000.0,
        ))
        _LIB_CACHE[key] = library
    return library


def _constraints_for(design, period: float, input_delay: float):
    from repro.sta import Constraints

    constraints = Constraints.single_clock(period)
    constraints.input_delays = {
        p: input_delay for p in design.input_ports() if p != "clk"
    }
    return constraints


def _apply_recipe(design, library, constraints, recipe: str,
                  budget: int) -> List[Dict[str, Any]]:
    """Apply one closure recipe in place; returns the wire-format edits.

    Recipes are deterministic: one scalar STA probe ranks endpoints,
    worst paths mark the "hot" instances, then footprint-preserving
    swaps spend the budget. ``lvt_crit`` trades leakage for speed on the
    critical cone, ``upsize_crit`` trades area/cap, ``downsize_cold``
    recovers power/area on the cold remainder at a timing cost — the
    exact tradeoff triangle Fig 9 sweeps.
    """
    from repro.netlist.transforms import downsize, swap_vt, upsize
    from repro.sta.analysis import STA

    if recipe == "none" or budget <= 0:
        return []
    sta = STA(design, library, constraints)
    report = sta.run()
    endpoints = report.endpoints("setup")
    hot: List[str] = []
    seen: Set[str] = set()
    for ep in endpoints[:8]:
        path = sta.worst_path(ep)
        for point in path.points:
            name = point.ref.instance
            if not name or name in seen:
                continue
            seen.add(name)
            if not library.cell(design.instance(name).cell_name) \
                    .is_sequential:
                hot.append(name)

    if recipe == "lvt_crit":
        candidates = hot

        def transform(inst):
            return swap_vt(design, library, inst, "lvt")
    elif recipe == "upsize_crit":
        candidates = hot

        def transform(inst):
            return upsize(design, library, inst)
    elif recipe == "downsize_cold":
        hot_set = set(hot)
        candidates = [
            name for name, inst in design.instances.items()
            if name not in hot_set
            and not library.cell(inst.cell_name).is_sequential
        ]

        def transform(inst):
            return downsize(design, library, inst)
    else:
        raise CampaignError(f"unknown recipe {recipe!r}")

    edits: List[Dict[str, Any]] = []
    for name in candidates:
        if len(edits) >= budget:
            break
        try:
            edit = transform(name)
        except NetlistError:
            continue  # dont_touch or incompatible variant: skip, no spend
        if edit is not None:
            edits.append({"kind": "set_cell", "target": edit.target,
                          "value": edit.after})
    return edits


def _scenarios_for(levels: Dict[str, Any], constraints):
    from repro.sta.mcmm import Scenario
    from repro.sta.propagation import Derates

    lib_tt = _library("tt", 0.80, 25.0, 0.0)
    lib_aged = _library("ssg", 0.72, 125.0, levels["aging_mv"])
    return [
        Scenario("tt_typ", lib_tt, constraints, "typ", 25.0),
        Scenario("ss_aged", lib_aged, constraints, "cw", 125.0,
                 derates=Derates(data_late=levels["derate_late"])),
    ], lib_tt


def _adjusted_tns(report, margin: float) -> float:
    return float(sum(
        min(0.0, e.slack - margin) for e in report.endpoints("setup")
    ))


def _signoff_metrics(reports: Dict[str, Any],
                     margin: float) -> Dict[str, float]:
    return {
        "wns": min(r.wns("setup") for r in reports.values()) - margin,
        "tns": min(_adjusted_tns(r, margin) for r in reports.values()),
        "hold_wns": min(r.wns("hold") for r in reports.values()),
    }


def _scenario_row(name: str, report) -> Dict[str, Any]:
    return {
        "scenario": name,
        "wns_setup": float(report.wns("setup")),
        "tns_setup": float(report.tns("setup")),
        "violations_setup": int(report.violation_count("setup")),
        "wns_hold": float(report.wns("hold")),
        "tns_hold": float(report.tns("hold")),
        "violations_hold": int(report.violation_count("hold")),
    }


def _power_metrics(design, library, levels: Dict[str, Any]) -> Dict[str, Any]:
    from repro.power import power_area_summary

    summary = power_area_summary(
        design, library, period=levels["period"],
        activity=levels["activity"],
    )
    return {
        "power_mw": summary.total_power,
        "leakage_mw": summary.power.leakage,
        "dynamic_mw": summary.power.dynamic,
        "area_um2": summary.area,
        "cells": summary.cells,
    }


def _yield_metrics(design, library, constraints, levels: Dict[str, Any],
                   seed: int) -> Dict[str, Any]:
    from repro.sta.algebra import VariationModel
    from repro.sta.ssta import run_ssta, tune_to_yield

    tau = float(levels["tune_tau"])
    if tau <= 0.0:
        return {"tyield": None, "pst_buffers": None}
    run = run_ssta(
        design, library, constraints,
        model=VariationModel(seed=seed),
        n_samples=int(levels["ssta_samples"]),
    )
    tuned = tune_to_yield(run, target_yield=float(levels["yield_target"]),
                          tune_range=tau)
    return {
        "tyield": float(tuned.tuned_yield),
        "pst_buffers": len(tuned.selected),
    }


def _config_payload_result(config: CampaignConfig,
                           attempt: int) -> Dict[str, Any]:
    """One full local signoff of one config (runs inside a worker)."""
    from repro.sta.scheduler import SignoffScheduler

    levels = resolve_levels(config.assignment)
    t0 = time.perf_counter()
    design = build_block(levels["block"])
    constraints = _constraints_for(design, levels["period"],
                                  levels["input_delay"])
    scenarios, lib_tt = _scenarios_for(levels, constraints)

    with obs_tracing.span("campaign_recipe", recipe=levels["recipe"]):
        edits = _apply_recipe(design, lib_tt, constraints,
                              levels["recipe"],
                              int(levels["recipe_budget"]))

    # The two scenarios run serially *inside* this worker (the campaign
    # fans out across configs, not within one) through the signoff
    # scheduler, which is what honors the engine factor. A scenario that
    # fails fails the config attempt: metrics over the survivors alone
    # would record a partial signoff as ok.
    scheduler = SignoffScheduler(
        scenarios, jobs=1, executor="serial", cache=None,
        policy=RetryPolicy(retries=0), engine=levels["engine"],
        keep_going=False,
    )
    with obs_tracing.span("campaign_signoff", config=config.index):
        outcome = scheduler.signoff(design)

    metrics: Dict[str, Any] = {}
    metrics.update(_signoff_metrics(outcome.reports, levels["margin_ps"]))
    with obs_tracing.span("campaign_power"):
        metrics.update(_power_metrics(design, lib_tt, levels))
    with obs_tracing.span("campaign_yield", tau=levels["tune_tau"]):
        metrics.update(_yield_metrics(design, lib_tt, constraints,
                                      levels, config.seed))
    metrics["eco_edits"] = len(edits)
    metrics["wall_s"] = time.perf_counter() - t0
    return {
        "metrics": metrics,
        "scenario_rows": [
            _scenario_row(name, report)
            for name, report in sorted(outcome.reports.items())
        ],
        "source": "signoff",
    }


def _run_config_job(payload, attempt: int = 1):
    """Module-level supervised worker: one config."""
    (config,) = payload
    with obs_tracing.span("campaign_config", index=config.index,
                          fingerprint=config.fingerprint[:12],
                          attempt=attempt):
        return _config_payload_result(config, attempt)


# ---------------------------------------------------------------------- #
# daemon dispatch

@dataclass
class DaemonTarget:
    """Where and how ``--via-daemon`` campaigns run.

    The daemon owns the design and scenario set; the campaign sweeps
    what an overlay session can express (recipes as ECO batches, PST
    tuning through the ``ssta`` op). ``design``/``library``/
    ``constraints`` are the client-side mirrors of the daemon's base —
    used to compute recipe edits and the local power/area rollup.
    """

    host: str
    port: int
    design: Any
    library: Any
    constraints: Any
    timeout_s: float = 30.0


def validate_daemon_spec(spec: CampaignSpec) -> None:
    """Daemon dispatch cannot re-shape the daemon; reject such factors."""
    fixed = dict(DEFAULT_LEVELS)
    for name in _DAEMON_FIXED:
        for factor in spec.factors:
            if factor.name == name and len(factor.levels) > 1:
                raise CampaignError(
                    f"factor {name!r} cannot be swept via a daemon "
                    f"(the daemon's design/scenarios are fixed)"
                )
        level = spec.base.get(name, fixed[name])
        for factor in spec.factors:
            if factor.name == name:
                level = factor.levels[0]
        if level != fixed[name]:
            raise CampaignError(
                f"level {name}={level!r} cannot run via a daemon; "
                f"it must stay {fixed[name]!r}"
            )


def _run_config_daemon_job(payload, attempt: int = 1):
    """One config as an overlay session against a warm daemon.

    Thread-pool only (the payload carries live objects); each attempt
    opens a fresh connection and session so a retry never reuses a
    half-dead socket or a session with half-applied state.
    """
    from repro.serve.client import TimingClient

    config, target = payload
    levels = resolve_levels(config.assignment)
    t0 = time.perf_counter()

    # Recipe edits computed locally on a private copy of the base: the
    # recipe edits the design, and the base is shared across workers.
    design = copy.deepcopy(target.design)
    edits = _apply_recipe(design, target.library, target.constraints,
                          levels["recipe"], int(levels["recipe_budget"]))

    client = TimingClient(target.host, target.port,
                          timeout_s=target.timeout_s)
    with client:
        sid = client.call("open_session", {})["session"]
        try:
            if edits:
                client.call("apply_eco", {"edits": edits}, session=sid)
            timing = client.call("timing", {}, session=sid)
            ssta_result = None
            tau = float(levels["tune_tau"])
            if tau > 0.0:
                ssta_result = client.call("ssta", {
                    "samples": int(levels["ssta_samples"]),
                    "target_yield": float(levels["yield_target"]),
                    "tune_range": tau,
                }, session=sid)
        finally:
            try:
                client.call("close_session", {}, session=sid)
            except Exception:  # noqa: BLE001 - best-effort cleanup
                pass

    rows = timing["scenarios"]
    metrics: Dict[str, Any] = {
        "wns": min(r["wns_setup"] for r in rows.values()),
        "tns": min(r["tns_setup"] for r in rows.values()),
        "hold_wns": min(r["wns_hold"] for r in rows.values()),
    }
    metrics.update(_power_metrics(design, target.library, levels))
    if ssta_result is not None:
        tuning = ssta_result.get("tuning") or {}
        metrics["tyield"] = tuning.get("tuned_yield",
                                       ssta_result.get("yield"))
        metrics["pst_buffers"] = tuning.get("buffers")
    else:
        metrics["tyield"] = None
        metrics["pst_buffers"] = None
    metrics["eco_edits"] = len(edits)
    metrics["wall_s"] = time.perf_counter() - t0
    return {
        "metrics": metrics,
        "scenario_rows": [
            {"scenario": name, **{
                k: row.get(k) for k in
                ("wns_setup", "tns_setup", "violations_setup",
                 "wns_hold", "tns_hold", "violations_hold")
            }}
            for name, row in sorted(rows.items())
        ],
        "source": "daemon",
    }


# ---------------------------------------------------------------------- #
# outcomes

@dataclass
class CampaignOutcome:
    """Bookkeeping of one :meth:`CampaignRunner.run` pass."""

    campaign: str
    total: int              # configs in the requested set
    computed: List[str] = field(default_factory=list)
    resumed: List[str] = field(default_factory=list)  # already in the DB
    degraded: List[Tuple[str, str]] = field(default_factory=list)
    waves: int = 0
    wall_s: float = 0.0
    events: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.degraded

    def render(self) -> str:
        lines = [
            f"campaign {self.campaign}: {self.total} config(s) — "
            f"{len(self.computed)} computed, {len(self.resumed)} resumed "
            f"from the DB, {len(self.degraded)} degraded "
            f"in {self.waves} wave(s), {self.wall_s:.2f} s",
        ]
        for fingerprint, error in self.degraded:
            lines.append(f"  DEGRADED {fingerprint[:12]}: {error}")
        return "\n".join(lines)


@dataclass
class TriageOutcome:
    """Bookkeeping of one :meth:`CampaignRunner.run_triaged` pass."""

    campaign: str
    total: int
    budget: int             # full-signoff slots the triage may spend
    trained_on: List[str] = field(default_factory=list)
    prioritized: List[str] = field(default_factory=list)
    predicted: int = 0      # configs left to the surrogate only
    wall_s: float = 0.0
    events: List[str] = field(default_factory=list)

    @property
    def ran(self) -> List[str]:
        return self.trained_on + self.prioritized

    def render(self) -> str:
        return (
            f"triage {self.campaign}: {len(self.ran)}/{self.total} "
            f"config(s) fully signed off (budget {self.budget}; "
            f"{len(self.trained_on)} training, "
            f"{len(self.prioritized)} prioritized), "
            f"{self.predicted} left to the surrogate, "
            f"{self.wall_s:.2f} s"
        )


# ---------------------------------------------------------------------- #
# the runner

class CampaignRunner:
    """Dispatch a campaign spec into a results store (module docstring).

    Args:
        spec: the design space.
        store: the results DB; reopened stores resume by fingerprint.
        jobs: worker count per wave.
        executor: "thread" (default), "process", or "serial"; daemon
            dispatch forces threads (live client objects).
        policy: per-config retry/timeout policy.
        chunk: configs per wave — the durability granularity (results
            commit between waves).
        daemon: a :class:`DaemonTarget` for ``--via-daemon`` dispatch.
        on_event: supervision event callback (also collected on
            outcomes).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: CampaignStore,
        jobs: int = 1,
        executor: str = "thread",
        policy: Optional[RetryPolicy] = None,
        chunk: int = 8,
        daemon: Optional[DaemonTarget] = None,
        on_event=None,
    ):
        if chunk < 1:
            raise CampaignError("chunk must be >= 1")
        validate_spec(spec)
        if daemon is not None:
            validate_daemon_spec(spec)
            executor = "thread"
        self.spec = spec
        self.store = store
        self.jobs = jobs
        self.executor = executor
        self.policy = policy or RetryPolicy(retries=1)
        self.chunk = chunk
        self.daemon = daemon
        self.on_event = on_event

    def _events_into(self, sink: List[str]):
        def _event(message: str) -> None:
            sink.append(message)
            if self.on_event is not None:
                self.on_event(message)
        return _event

    def _payload(self, config: CampaignConfig):
        if self.daemon is not None:
            return (config, self.daemon)
        return (config,)

    def _job_fn(self):
        return (_run_config_daemon_job if self.daemon is not None
                else _run_config_job)

    def run(
        self,
        configs: Optional[Sequence[CampaignConfig]] = None,
        resume: bool = True,
    ) -> CampaignOutcome:
        """Run ``configs`` (default: the full expansion) to completion.

        ``resume=True`` skips configs already recorded; ``False`` runs
        them anyway (their results are then discarded by the store's
        first-write-wins insert — useful only for testing determinism).
        """
        t0 = time.perf_counter()
        configs = list(configs if configs is not None
                       else self.spec.expand())
        self.store.record_spec(self.spec.name, self.spec.to_json())
        outcome = CampaignOutcome(campaign=self.spec.name,
                                  total=len(configs))
        done = self.store.done_fingerprints(self.spec.name)
        todo: List[CampaignConfig] = []
        for config in configs:
            if resume and config.fingerprint in done:
                outcome.resumed.append(config.fingerprint)
            else:
                todo.append(config)

        with obs_tracing.span(
            "campaign", campaign=self.spec.name, configs=len(configs),
            todo=len(todo), via_daemon=self.daemon is not None,
        ):
            for start in range(0, len(todo), self.chunk):
                wave = todo[start:start + self.chunk]
                outcome.waves += 1
                with obs_tracing.span("campaign_wave",
                                      wave=outcome.waves,
                                      configs=len(wave)):
                    executor = SupervisedExecutor(
                        jobs=self.jobs, executor=self.executor,
                        policy=self.policy,
                        on_event=self._events_into(outcome.events),
                    )
                    tasks = [
                        SupervisedTask(
                            name=f"cfg-{config.index}",
                            fn=self._job_fn(),
                            payload=self._payload(config),
                        )
                        for config in wave
                    ]
                    executions = executor.run(tasks)
                # Results commit wave-by-wave: this loop is the
                # durability boundary the SIGKILL test leans on.
                for config, execution in zip(wave, executions):
                    if execution.status is TaskStatus.DEGRADED:
                        error = execution.error_text
                        self.store.record_failure(
                            config, error, execution.attempts)
                        outcome.degraded.append(
                            (config.fingerprint, error))
                        obs_metrics.inc("campaign.configs.degraded")
                        continue
                    result = execution.result
                    self.store.record_result(
                        config, "ok", result["metrics"],
                        result["scenario_rows"],
                        source=result["source"],
                    )
                    outcome.computed.append(config.fingerprint)
                    obs_metrics.inc("campaign.configs.completed")
        outcome.wall_s = time.perf_counter() - t0
        return outcome

    # ------------------------------------------------------------------ #
    # learned triage

    def run_triaged(
        self,
        budget: float = 0.5,
        train: float = 0.25,
        axes: Sequence[Axis] = DEFAULT_AXES,
        model: str = "ridge",
    ) -> TriageOutcome:
        """Guided search: spend ``budget`` of the full-sweep cost.

        1. run a training wave of ``train * N`` configs spread evenly
           over the design (resume-aware: rows already in the DB count);
        2. fit the surrogate (factor levels + block probe features);
        3. rank the remaining configs by the nondomination layer of
           their *predicted* metrics pooled with the observed rows;
        4. run the best-ranked until ``budget * N`` total signoffs,
           recording surrogate predictions for everything skipped.
        """
        if not 0.0 < budget <= 1.0:
            raise CampaignError(f"budget must be in (0, 1], got {budget}")
        if not 0.0 < train <= budget:
            raise CampaignError(
                f"train fraction must be in (0, budget], got {train}"
            )
        if model not in MODELS:
            raise CampaignError(f"unknown surrogate model {model!r}")
        t0 = time.perf_counter()
        configs = self.spec.expand()
        n = len(configs)
        budget_n = max(2, int(math.floor(budget * n)))
        train_n = max(2, int(round(train * n)))
        train_set = [configs[i] for i in spread_indices(n, train_n)]

        outcome = TriageOutcome(campaign=self.spec.name, total=n,
                                budget=budget_n)
        with obs_tracing.span("campaign_triage", campaign=self.spec.name,
                              budget=budget_n, train=len(train_set)):
            wave1 = self.run(configs=train_set, resume=True)
            outcome.events.extend(wave1.events)
            outcome.trained_on = wave1.computed + wave1.resumed

            rows = self.store.rows(self.spec.name, status="ok")
            completed = {row["fingerprint"] for row in rows}
            remaining = [
                c for c in configs if c.fingerprint not in completed
            ]

            default_block = DEFAULT_LEVELS["block"]
            surrogate = Surrogate(
                self.spec, model=model,
                extra=lambda levels: probe_features(
                    levels.get("block", default_block)),
            ).fit(rows)
            ordered = triage_order(surrogate, rows, remaining, axes)

            slots = max(0, budget_n - len(outcome.trained_on))
            chosen = [config for config, _, _ in ordered[:slots]]
            wave2 = self.run(configs=chosen, resume=True)
            outcome.events.extend(wave2.events)
            outcome.prioritized = wave2.computed + wave2.resumed

            for config, predicted, layer in ordered[slots:]:
                self.store.record_prediction(
                    self.spec.name, config.fingerprint, layer, predicted)
                outcome.predicted += 1
        outcome.wall_s = time.perf_counter() - t0
        return outcome
