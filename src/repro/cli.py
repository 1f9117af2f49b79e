"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro sta      --design rand --period 500
    python -m repro signoff  --design rand --period 500 --jobs 4 \\
                             --retries 2 --timeout 120 \\
                             --checkpoint run.journal --keep-going
    python -m repro signoff  --design rand --period 500 \\
                             --checkpoint run.journal --resume
    python -m repro signoff  --hier --blocks 3 --period 900 \\
                             --jobs 2 --executor process
    python -m repro validate --design rand --period 500
    python -m repro closure  --design c5315 --period 430
    python -m repro library  --process ss --vdd 0.72 --temp 125 -o ss.lib
    python -m repro etm      --design rand --period 500
    python -m repro corners  --modes 6 --domains 4
    python -m repro history
    python -m repro closure  --design aes --period 1240 \\
                             --trace closure.trace.json
    python -m repro trace summarize closure.trace.json

Designs are the synthetic generators (``rand``, ``c5315``, ``c7552``,
``aes``, ``mpeg2``, ``tiny``); libraries come from the analytic factory
at the requested PVT condition.

Exit codes distinguish outcomes so schedulers and CI can triage without
parsing output: 0 = clean; 1 = timing (or validation) violations found;
3 = signoff completed but with quarantined DEGRADED scenarios;
4 = run failed (structured :class:`~repro.errors.ReproError` — printed
as a one-line ``error:`` message, never a traceback). argparse keeps its
conventional 2 for usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Callable, Dict, List, Optional

from repro.errors import ReproError, ValidationError
from repro.liberty import LibraryCondition, make_library
from repro.liberty.io import write_library
from repro.netlist.design import Design
from repro.netlist.generators import (
    aes_like,
    c5315_like,
    c7552_like,
    mpeg2_like,
    random_logic,
    tiny_design,
)

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_DEGRADED = 3
EXIT_FATAL = 4

_DESIGNS: Dict[str, Callable[..., Design]] = {
    "tiny": lambda seed, gates: tiny_design(),
    "rand": lambda seed, gates: random_logic(
        n_gates=gates, n_levels=max(4, gates // 30), seed=seed
    ),
    "c5315": lambda seed, gates: c5315_like(seed=seed, scale=gates / 2307.0),
    "c7552": lambda seed, gates: c7552_like(seed=seed, scale=gates / 3512.0),
    "aes": lambda seed, gates: aes_like(
        seed=seed, n_sboxes=max(2, gates // 60)
    ),
    "mpeg2": lambda seed, gates: mpeg2_like(
        seed=seed, lanes=max(1, gates // 120)
    ),
}


def _add_library_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--process", default="tt",
                        help="process corner (tt/ss/ff/ssg/ffg/fsg/sfg)")
    parser.add_argument("--vdd", type=float, default=0.8, help="supply, V")
    parser.add_argument("--temp", type=float, default=25.0,
                        help="temperature, C")
    parser.add_argument("--aging-mv", type=float, default=0.0,
                        help="BTI aging shift, mV")


def _add_design_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--design", default="rand",
                        choices=sorted(_DESIGNS), help="synthetic design")
    parser.add_argument("--gates", type=int, default=200,
                        help="approximate gate count")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--period", type=float, default=500.0,
                        help="clock period, ps")
    parser.add_argument("--input-delay", type=float, default=60.0,
                        help="input arrival after clock, ps")


def _make_library(args):
    return make_library(
        LibraryCondition(
            process=args.process,
            vdd=args.vdd,
            temp_c=args.temp,
            vt_shift_aging=args.aging_mv / 1000.0,
        )
    )


def _scenario_library(process: str, vdd: float, temp: float):
    """The library factory of the standard scenario set."""
    return make_library(
        LibraryCondition(process=process, vdd=vdd, temp_c=temp)
    )


def _batch_journal(args):
    """The ``--checkpoint``/``--resume`` journal of a batch run (None
    without ``--checkpoint``). A fresh run drops a stale journal."""
    from repro.runtime import RunJournal

    if args.checkpoint:
        if not args.resume and os.path.exists(args.checkpoint):
            os.remove(args.checkpoint)
        return RunJournal(args.checkpoint)
    if args.resume:
        raise ReproError("--resume requires --checkpoint PATH")
    return None


def _make_setup(args):
    from repro.sta import Constraints

    design = _DESIGNS[args.design](args.seed, args.gates)
    constraints = Constraints.single_clock(args.period)
    constraints.input_delays = {
        p: args.input_delay for p in design.input_ports() if p != "clk"
    }
    return design, _make_library(args), constraints


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="record hierarchical spans and write a "
                             "Chrome-trace JSON (chrome://tracing, "
                             "Perfetto, or `repro trace summarize`)")
    parser.add_argument("--metrics", metavar="FILE", default=None,
                        help="record counters/gauges/histograms and "
                             "write a metrics snapshot JSON")


@contextlib.contextmanager
def _obs_session(args):
    """Arm tracing/metrics for ``--trace`` / ``--metrics``.

    Exports are written on the way out even when the run aborts, so a
    failed closure still leaves its partial trace behind.
    """
    from repro.obs import export, metrics, tracing

    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if not trace_path and not metrics_path:
        yield
        return
    tracer = tracing.Tracer() if trace_path else None
    registry = metrics.MetricsRegistry() if metrics_path else None
    try:
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracing.use(tracer))
            if registry is not None:
                # The process default, so that supervised worker threads
                # (a vector signoff's mode tasks) record into it too.
                stack.callback(metrics.set_default_registry,
                               metrics.set_default_registry(registry))
            yield
    finally:
        if tracer is not None:
            export.write_chrome_trace(trace_path, tracer.spans())
            print(f"trace: wrote {len(tracer)} span(s) to {trace_path}",
                  file=sys.stderr)
        if registry is not None:
            registry.write_json(metrics_path)
            print(f"metrics: wrote snapshot to {metrics_path}",
                  file=sys.stderr)


# ---------------------------------------------------------------------- #
# subcommands


def _cmd_sta(args) -> int:
    from repro.sta import STA

    design, library, constraints = _make_setup(args)
    sta = STA(design, library, constraints, si_enabled=args.si)
    report = sta.run()
    print(report.summary())
    print()
    print(report.slack_histogram("setup", bins=6))
    worst = report.worst("setup")
    if worst is not None and args.paths > 0:
        print()
        for endpoint in report.endpoints("setup")[: args.paths]:
            print(sta.worst_path(endpoint).render())
            print()
    return 0 if report.wns("setup") >= 0 and report.wns("hold") >= 0 else 1


def _cmd_signoff(args) -> int:
    from repro.runtime import RetryPolicy
    from repro.sta.mcmm import standard_scenario_set
    from repro.sta.scheduler import ScenarioResultCache, SignoffScheduler
    from repro.validate import ensure_valid

    if args.jobs < 1:
        # Deliberately exit 1 (not argparse's 2): the flag parsed fine,
        # the *value* is unusable, and schedulers keying on exit codes
        # treat 1 as "ran and found a problem".
        print(f"error: --jobs must be a positive integer (got {args.jobs})",
              file=sys.stderr)
        return EXIT_VIOLATIONS

    from repro.sta.kernel import ENGINES

    if args.engine not in ENGINES:
        # Same contract as the --jobs guard: exit 1 with the valid
        # choices listed, not argparse's usage-error 2.
        print(f"error: unknown engine {args.engine!r}; "
              f"pick from {', '.join(ENGINES)}",
              file=sys.stderr)
        return EXIT_VIOLATIONS

    if args.hier:
        return _cmd_signoff_hier(args)
    if args.ssta:
        return _cmd_signoff_ssta(args)

    design, _, constraints = _make_setup(args)

    scenario_set = standard_scenario_set(constraints, _scenario_library)

    if not args.no_validate:
        # Lint before spending compute: netlist/constraints once, plus
        # every per-scenario library (each is a distinct PVT handoff).
        for scenario in scenario_set.scenarios:
            ensure_valid(design, scenario.library, scenario.constraints)

    journal = _batch_journal(args)

    fault_injector = None
    if args.inject_faults is not None:
        from repro.testing import FaultPlan, FaultInjector

        fault_injector = FaultInjector(FaultPlan.seeded(
            args.inject_faults,
            [s.name for s in scenario_set.scenarios],
            crash_rate=0.2, hang_rate=0.1, persistent_rate=0.1,
            hang_seconds=(args.timeout or 0.2) * 2,
        ))

    scheduler = SignoffScheduler(
        scenario_set.scenarios,
        stack=scenario_set.stack,
        jobs=args.jobs,
        executor=args.executor,
        cache=ScenarioResultCache(verify=True),
        policy=RetryPolicy(retries=args.retries, timeout_s=args.timeout),
        journal=journal,
        keep_going=args.keep_going,
        fault_injector=fault_injector,
        engine=args.engine,
    )
    with _obs_session(args):
        outcome = scheduler.signoff(design)
    print(outcome.render("setup"))
    print()
    for event in outcome.events:
        print(f"supervisor: {event}")
    print(
        f"jobs: {args.jobs} ({outcome.executor_used}); recomputed "
        f"{len(outcome.recomputed)}/{len(scenario_set.scenarios)} scenarios "
        f"({len(outcome.journal_hits)} from checkpoint) "
        f"in {outcome.wall_time_s:.2f} s"
    )
    if outcome.degraded:
        return EXIT_DEGRADED
    result = outcome.result
    ok = result.merged_wns("setup") >= 0 and result.merged_wns("hold") >= 0
    return EXIT_CLEAN if ok else EXIT_VIOLATIONS


def _cmd_signoff_ssta(args) -> int:
    """``signoff --ssta``: the statistical scenario family.

    Runs the canonical-form SSTA engine per scenario, reports
    per-endpoint slack distributions, timing yield at the target period
    and endpoint criticalities, then the PST tuning pass. Exit 0 when
    every scenario reaches the yield target after tuning, else 1.
    """
    from repro.sta.algebra import VariationModel
    from repro.sta.mcmm import standard_scenario_set
    from repro.sta.ssta import (
        monte_carlo_ssta,
        pst_benchmark_setup,
        run_ssta,
        tune_to_yield,
    )

    if args.ssta_bench:
        design, library, constraints = pst_benchmark_setup(seed=args.seed)
    else:
        design, library, constraints = _make_setup(args)
    model = VariationModel(rho=args.ssta_rho)

    scenarios = [(library.name, library, constraints)]
    if args.ssta_corners > 1:
        sset = standard_scenario_set(constraints, _scenario_library)
        scenarios = [
            (s.name, s.library, s.constraints)
            for s in sset.scenarios[: args.ssta_corners]
        ]

    exit_code = EXIT_CLEAN
    with _obs_session(args):
        for name, lib, cons in scenarios:
            run = run_ssta(design, lib, cons, model=model,
                           n_samples=args.ssta_samples)
            print(f"scenario {name}:")
            print(run.render())
            if args.ssta_mc:
                mc = monte_carlo_ssta(design, lib, cons, model=model,
                                      n_samples=args.ssta_mc)
                print(f"  mc yield ({mc.n_samples} samples): "
                      f"{mc.timing_yield:.4f}")
            tuned = tune_to_yield(run, target_yield=args.yield_target,
                                  tune_range=args.tune_range)
            print(tuned.render())
            print()
            if not tuned.achieved:
                exit_code = EXIT_VIOLATIONS
    return exit_code


def _cmd_signoff_hier(args) -> int:
    """``signoff --hier``: ETM extraction sharded across workers, then
    top-level signoff over the stub models."""
    from repro.netlist.generators import hierarchical_soc
    from repro.runtime import RetryPolicy
    from repro.sta.hier import HierScheduler
    from repro.sta.mcmm import standard_scenario_set
    from repro.sta.scheduler import ScenarioResultCache

    hier = hierarchical_soc(
        seed=args.seed,
        n_blocks=args.blocks,
        block_gates=max(20, args.gates // max(1, args.blocks)),
    )
    constraints = hier.top_constraints(period=args.period)

    scenario_set = standard_scenario_set(constraints, _scenario_library)
    scheduler = HierScheduler(
        hier,
        scenario_set.scenarios,
        stack=scenario_set.stack,
        jobs=args.jobs,
        executor=args.executor,
        etm_cache=ScenarioResultCache(),
        signoff_cache=ScenarioResultCache(verify=True),
        policy=RetryPolicy(retries=args.retries, timeout_s=args.timeout),
        engine=args.engine,
    )
    with _obs_session(args):
        outcome = scheduler.signoff()
    print(outcome.render("setup"))
    print()
    for event in outcome.events:
        print(f"supervisor: {event}")
    print(
        f"jobs: {args.jobs} ({args.executor}); extracted "
        f"{outcome.etm_computed} block model(s) "
        f"({outcome.etm_cache_hits} cached) in {outcome.wall_time_s:.2f} s"
    )
    if outcome.top is None:
        return EXIT_FATAL
    if outcome.degraded:
        return EXIT_DEGRADED
    return EXIT_CLEAN if not outcome.has_violations else EXIT_VIOLATIONS


def _cmd_closure(args) -> int:
    from repro.core.closure import ClosureConfig, ClosureEngine
    from repro.runtime import RetryPolicy
    from repro.validate import ensure_valid

    design, library, constraints = _make_setup(args)
    if not args.no_validate:
        ensure_valid(design, library, constraints)
    journal = _batch_journal(args)
    engine = ClosureEngine(
        design, library, constraints,
        policy=RetryPolicy(retries=args.retries),
        journal=journal,
    )
    with _obs_session(args):
        result = engine.run(
            ClosureConfig(max_iterations=args.iterations,
                          budget_per_fix=args.budget,
                          timing=args.timing),
            resume=args.resume,
        )
    print(result.render())
    if result.aborted:
        return EXIT_DEGRADED
    return EXIT_CLEAN if result.converged else EXIT_VIOLATIONS


def _cmd_validate(args) -> int:
    from repro.liberty.io import parse_library
    from repro.validate import validate_setup

    design, library, constraints = _make_setup(args)
    if args.library_file:
        try:
            with open(args.library_file, "r", encoding="utf-8") as handle:
                library = parse_library(handle.read())
        except OSError as exc:
            raise ValidationError(
                f"cannot read library file: {exc}",
                path=args.library_file,
            ) from exc
    report = validate_setup(design, library, constraints)
    print(f"validating design {design.name!r} against library "
          f"{library.name!r}")
    print(report.render())
    return EXIT_CLEAN if report.ok else EXIT_VIOLATIONS


def _cmd_library(args) -> int:
    library = _make_library(args)
    text = write_library(library)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {len(library)} cells to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_etm(args) -> int:
    from repro.sta import STA
    from repro.sta.etm import extract_etm, render_etm

    design, library, constraints = _make_setup(args)
    constraints.input_delays = {}
    sta = STA(design, library, constraints)
    sta.run()  # extract_etm reads the retained report; no second run
    print(render_etm(extract_etm(sta)))
    return 0


def _cmd_corners(args) -> int:
    from repro.beol.corners import corner_explosion_count
    from repro.beol.stack import default_stack

    counts = corner_explosion_count(
        n_modes=args.modes, n_voltage_domains=args.domains,
        stack=default_stack(),
    )
    for key, value in counts.items():
        print(f"{key:<28} {value:>14,}")
    return 0


def _cmd_serve(args) -> int:
    """Run the timing daemon in the foreground until SIGTERM/SIGINT."""
    import json
    import signal

    from repro.obs import export, metrics, tracing
    from repro.runtime import RunJournal
    from repro.serve import DaemonConfig, TimingDaemon
    from repro.sta.mcmm import standard_scenario_set

    design, _, constraints = _make_setup(args)

    scenario_set = standard_scenario_set(constraints, _scenario_library)
    scenarios = scenario_set.scenarios
    if args.corners:
        scenarios = scenarios[: args.corners]

    # Unlike batch signoff, an existing journal is *kept*: the journal
    # is the daemon's durable state, and restarting on it is exactly the
    # warm-restart path (cache prewarm + session ledger replay).
    journal = RunJournal(args.checkpoint) if args.checkpoint else None

    fault_injector = None
    if args.inject_faults is not None:
        from repro.testing import FaultInjector, FaultPlan

        fault_injector = FaultInjector(FaultPlan.seeded(
            args.inject_faults,
            [s.name for s in scenarios],
            crash_rate=0.15, hang_rate=0.05, persistent_rate=0.1,
            hang_seconds=(args.timeout or 0.2) * 2,
            kernel_rate=0.15,
        ))

    daemon = TimingDaemon(
        design, scenarios, stack=scenario_set.stack,
        config=DaemonConfig(
            host=args.host, port=args.port, workers=args.workers,
            queue_limit=args.queue_limit, retries=args.retries,
            timeout_s=args.timeout, engine=args.engine,
            session_limit=args.session_limit,
        ),
        journal=journal,
        fault_injector=fault_injector,
    )

    # Tracing/metrics are installed as *process defaults* (not the
    # thread-local _obs_session) so daemon worker threads record too.
    tracer = tracing.Tracer() if args.trace else None
    registry = metrics.MetricsRegistry() if args.metrics else None
    if tracer is not None:
        tracing.set_default_tracer(tracer)
    if registry is not None:
        metrics.set_default_registry(registry)

    port = daemon.start()
    if args.port_file:
        # Written atomically so pollers never observe a partial file.
        tmp = f"{args.port_file}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(f"{port}\n")
        os.replace(tmp, args.port_file)
    print(json.dumps({
        "serving": design.name, "host": args.host, "port": port,
        "scenarios": [s.name for s in scenarios],
        "engine": args.engine, "workers": args.workers,
        "queue_limit": args.queue_limit,
    }), flush=True)

    def _terminate(signum, frame):
        daemon.stop()

    signal.signal(signal.SIGTERM, _terminate)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.stop()
    finally:
        if tracer is not None:
            tracing.set_default_tracer(None)
            export.write_chrome_trace(args.trace, tracer.spans())
            print(f"trace: wrote {len(tracer)} span(s) to {args.trace}",
                  file=sys.stderr)
        if registry is not None:
            metrics.set_default_registry(None)
            registry.write_json(args.metrics)
            print(f"metrics: wrote snapshot to {args.metrics}",
                  file=sys.stderr)
    return EXIT_CLEAN


def _cmd_query(args) -> int:
    """One client request against a running daemon; JSON on stdout."""
    import json

    from repro.errors import ServeError
    from repro.runtime import RetryPolicy
    from repro.serve import TimingClient

    try:
        params = json.loads(args.params) if args.params else {}
    except ValueError as exc:
        print(f"error: --params is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_VIOLATIONS
    policy = (RetryPolicy(retries=args.retries, backoff_s=0.2)
              if args.retries > 0 else None)
    client = TimingClient(args.host, args.port, timeout_s=args.timeout)
    try:
        with client:
            result = client.call(
                args.op, params, session=args.session,
                deadline_s=args.deadline, policy=policy,
            )
    except ServeError as exc:
        # Retryable failures (shed, deadline, daemon restart) exit 3 so
        # a wrapping script can back off and resubmit; permanent ones
        # (bad request, quarantined session) exit 4.
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_DEGRADED if exc.retryable else EXIT_FATAL
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_CLEAN


def _load_campaign_spec(args):
    from repro.campaign import CampaignSpec, demo_spec

    if args.spec_file:
        from repro.errors import CampaignError

        try:
            with open(args.spec_file, "r", encoding="utf-8") as fh:
                spec = CampaignSpec.from_json(fh.read())
        except OSError as exc:
            raise CampaignError(
                f"cannot read campaign spec {args.spec_file!r}: {exc}"
            ) from exc
    else:
        spec = demo_spec()
    if getattr(args, "fraction", None) is not None:
        spec.fraction = args.fraction
    return spec


def _campaign_runner(args, spec, store, daemon=None):
    from repro.campaign import CampaignRunner
    from repro.runtime import RetryPolicy

    return CampaignRunner(
        spec, store,
        jobs=args.jobs,
        executor=args.executor,
        policy=RetryPolicy(retries=args.retries,
                           timeout_s=args.timeout),
        chunk=args.chunk,
        daemon=daemon,
        on_event=lambda msg: print(f"  [supervisor] {msg}",
                                   file=sys.stderr),
    )


def _cmd_campaign_run(args) -> int:
    from repro.campaign import CampaignStore, DaemonTarget

    daemon = None
    if args.via_daemon:
        host, _, port = args.via_daemon.rpartition(":")
        if not host or not port.isdigit():
            print(f"error: --via-daemon wants HOST:PORT, got "
                  f"{args.via_daemon!r}", file=sys.stderr)
            return EXIT_VIOLATIONS
        # The client-side mirror of the daemon's base design: recipes
        # and the power/area rollup are computed locally, so the
        # --design/--period/... flags must match the serving daemon's.
        design, library, constraints = _make_setup(args)
        daemon = DaemonTarget(host, int(port), design, library,
                              constraints)
    spec = _load_campaign_spec(args)
    with _obs_session(args):
        with CampaignStore(args.db) as store:
            runner = _campaign_runner(args, spec, store, daemon=daemon)
            configs = spec.expand()
            if args.configs:
                configs = configs[:args.configs]
            outcome = runner.run(configs=configs,
                                 resume=not args.no_resume)
            print(outcome.render())
    return EXIT_DEGRADED if outcome.degraded else EXIT_CLEAN


def _cmd_campaign_pareto(args) -> int:
    from repro.campaign import (
        CampaignStore, DEFAULT_AXES, parse_axes, render_front,
    )
    from repro.obs import write_artifact

    with CampaignStore(args.db) as store:
        campaign = args.campaign
        if campaign is None:
            names = store.campaigns()
            if len(names) != 1:
                print(f"error: --campaign needed; DB holds "
                      f"{names or 'no campaigns'}", file=sys.stderr)
                return EXIT_VIOLATIONS
            campaign = names[0]
        rows = store.rows(campaign, status="ok")
        if not rows:
            print(f"error: campaign {campaign!r} has no completed "
                  f"configs in {args.db}", file=sys.stderr)
            return EXIT_VIOLATIONS
        axes = parse_axes(args.axes) if args.axes else DEFAULT_AXES
        factors = tuple(f for f in (args.factors or "").split(",") if f)
        text = render_front(
            rows, axes, factors=factors,
            title=f"pareto front: campaign {campaign}",
            limit=args.limit,
        )
    print(text)
    if args.out:
        path = write_artifact(args.out, text)
        print(f"pareto: wrote {path}", file=sys.stderr)
    return EXIT_CLEAN


def _cmd_campaign_triage(args) -> int:
    from repro.campaign import (
        CampaignStore, DEFAULT_AXES, front_recall, parse_axes,
        pareto_front,
    )

    spec = _load_campaign_spec(args)
    axes = parse_axes(args.axes) if args.axes else DEFAULT_AXES
    with _obs_session(args):
        with CampaignStore(args.db) as store:
            runner = _campaign_runner(args, spec, store)
            outcome = runner.run_triaged(
                budget=args.budget, train=args.train,
                axes=axes, model=args.surrogate,
            )
            print(outcome.render())
            recovered = {
                row["fingerprint"]
                for row in store.rows(spec.name, status="ok")
            }
    if args.truth_db:
        with CampaignStore(args.truth_db) as truth:
            truth_rows = truth.rows(spec.name, status="ok")
        if not truth_rows:
            print(f"error: truth DB has no campaign {spec.name!r}",
                  file=sys.stderr)
            return EXIT_VIOLATIONS
        front = pareto_front(truth_rows, axes)
        recall = front_recall(front, recovered)
        print(f"triage recall vs full sweep: {recall:.3f} "
              f"({len(front)} true front configs, "
              f"{len(recovered)} signed off)")
    return EXIT_CLEAN


def _cmd_trace_summarize(args) -> int:
    from repro.obs.export import summarize_file

    try:
        summary = summarize_file(args.file)
    except ReproError as exc:
        # A missing or empty trace file is an operator mistake, not an
        # internal failure: exit 1 with a one-line message instead of
        # the generic fatal-error path.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATIONS
    print(summary.render())
    return 0


def _cmd_history(args) -> int:
    from repro.core.history import render_old_vs_new, render_timeline

    print(render_old_vs_new())
    print()
    print(render_timeline())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Timing-closure playground (Kahng, DAC 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sta = sub.add_parser("sta", help="run static timing analysis")
    _add_design_args(p_sta)
    _add_library_args(p_sta)
    p_sta.add_argument("--si", action="store_true",
                       help="enable coupling-noise delta delays")
    p_sta.add_argument("--paths", type=int, default=1,
                       help="worst paths to print")
    p_sta.set_defaults(func=_cmd_sta)

    p_sig = sub.add_parser(
        "signoff", help="parallel MCMM signoff over the standard corner set"
    )
    _add_design_args(p_sig)
    _add_library_args(p_sig)
    p_sig.add_argument("--jobs", type=int, default=1,
                       help="signoff worker count (1 = serial)")
    p_sig.add_argument("--executor", default="thread",
                       choices=["serial", "thread", "process"],
                       help="worker pool flavor")
    p_sig.add_argument("--engine", default="reference",
                       help="timing engine: 'reference' (per-scenario "
                            "oracle walk) or 'vector' (batched "
                            "multi-corner array kernel)")
    p_sig.add_argument("--retries", type=int, default=2,
                       help="retry attempts per scenario after a failure")
    p_sig.add_argument("--timeout", type=float, default=None,
                       help="per-attempt wall-clock budget, seconds")
    p_sig.add_argument("--checkpoint", metavar="PATH",
                       help="journal completed scenarios to PATH")
    p_sig.add_argument("--resume", action="store_true",
                       help="reuse scenarios already in the checkpoint "
                            "journal instead of recomputing them")
    p_sig.add_argument("--keep-going", action="store_true",
                       help="quarantine DEGRADED scenarios and finish the "
                            "batch (exit 3) instead of failing (exit 4)")
    p_sig.add_argument("--no-validate", action="store_true",
                       help="skip the pre-run netlist/library/constraint "
                            "lint")
    p_sig.add_argument("--hier", action="store_true",
                       help="hierarchical signoff: extract per-block "
                            "timing models in parallel workers, then "
                            "time the top level against the stubs")
    p_sig.add_argument("--blocks", type=int, default=3,
                       help="block instance count for --hier (default 3)")
    p_sig.add_argument("--ssta", action="store_true",
                       help="statistical signoff: canonical-form SSTA "
                            "with yield, criticalities and PST tuning")
    p_sig.add_argument("--ssta-samples", type=int, default=4000,
                       help="samples for yield/criticality estimation")
    p_sig.add_argument("--ssta-rho", type=float, default=0.45,
                       help="correlated fraction of per-arc LVF sigma")
    p_sig.add_argument("--ssta-corners", type=int, default=1,
                       help="scenarios from the standard set to run "
                            "statistically (default: the CLI PVT only)")
    p_sig.add_argument("--ssta-mc", type=int, default=0, metavar="N",
                       help="also run an N-sample Monte-Carlo validation "
                            "pass and print its yield")
    p_sig.add_argument("--ssta-bench", action="store_true",
                       help="use the PST benchmark block (period tuned "
                            "for an interesting failing-die fraction)")
    p_sig.add_argument("--yield-target", type=float, default=0.99,
                       help="timing-yield target for PST tuning")
    p_sig.add_argument("--tune-range", type=float, default=40.0,
                       help="PST buffer tuning range, ps (+/- around "
                            "the nominal tap)")
    p_sig.add_argument("--inject-faults", type=int, metavar="SEED",
                       default=None,
                       help="chaos testing: inject a seeded, deterministic "
                            "fault plan (crashes/hangs) into the workers")
    _add_obs_args(p_sig)
    p_sig.set_defaults(func=_cmd_signoff)

    p_clo = sub.add_parser("closure", help="run the Fig 1 closure loop")
    _add_design_args(p_clo)
    _add_library_args(p_clo)
    p_clo.add_argument("--iterations", type=int, default=5)
    p_clo.add_argument("--budget", type=int, default=20,
                       help="edits per fix engine per iteration")
    p_clo.add_argument("--timing", default="incremental",
                       choices=["incremental", "full"],
                       help="re-time edits cone-limited through a warm "
                            "incremental timer (default) or rebuild a "
                            "fresh STA every iteration")
    p_clo.add_argument("--retries", type=int, default=2,
                       help="retry attempts per STA pass after a crash")
    p_clo.add_argument("--checkpoint", metavar="PATH",
                       help="journal completed iterations to PATH")
    p_clo.add_argument("--resume", action="store_true",
                       help="continue from the last journaled iteration")
    p_clo.add_argument("--no-validate", action="store_true",
                       help="skip the pre-run lint")
    _add_obs_args(p_clo)
    p_clo.set_defaults(func=_cmd_closure)

    p_val = sub.add_parser(
        "validate",
        help="pre-run lint of netlist, library and constraints",
    )
    _add_design_args(p_val)
    _add_library_args(p_val)
    p_val.add_argument("--library-file", metavar="PATH",
                       help="lint a Liberty-lite file instead of the "
                            "analytic factory library")
    p_val.set_defaults(func=_cmd_validate)

    p_lib = sub.add_parser("library", help="emit a Liberty-lite library")
    _add_library_args(p_lib)
    p_lib.add_argument("-o", "--output", help="output file (default stdout)")
    p_lib.set_defaults(func=_cmd_library)

    p_etm = sub.add_parser("etm", help="extract a block timing model")
    _add_design_args(p_etm)
    _add_library_args(p_etm)
    p_etm.set_defaults(func=_cmd_etm)

    p_cor = sub.add_parser("corners", help="corner-explosion arithmetic")
    p_cor.add_argument("--modes", type=int, default=6)
    p_cor.add_argument("--domains", type=int, default=4)
    p_cor.set_defaults(func=_cmd_corners)

    p_srv = sub.add_parser(
        "serve",
        help="run the timing daemon (signoff-as-a-service)",
    )
    _add_design_args(p_srv)
    _add_library_args(p_srv)
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral; see --port-file)")
    p_srv.add_argument("--port-file", metavar="PATH",
                       help="write the bound port here (atomically) "
                            "once listening")
    p_srv.add_argument("--workers", type=int, default=4,
                       help="query worker threads")
    p_srv.add_argument("--queue-limit", type=int, default=64,
                       help="admission queue depth; beyond it requests "
                            "are shed with E_OVERLOADED")
    p_srv.add_argument("--retries", type=int, default=1,
                       help="retry attempts per query after a worker "
                            "crash")
    p_srv.add_argument("--timeout", type=float, default=None,
                       help="per-attempt wall-clock budget, seconds")
    p_srv.add_argument("--engine", default="reference",
                       help="timing engine: 'reference' or 'vector' "
                            "(vector degrades per scenario on kernel "
                            "compile failure)")
    p_srv.add_argument("--corners", type=int, default=0,
                       help="serve only the first N standard corners "
                            "(0 = all)")
    p_srv.add_argument("--session-limit", type=int, default=256,
                       help="max concurrently active sessions")
    p_srv.add_argument("--checkpoint", metavar="PATH",
                       help="journal scenario results and the session "
                            "ledger to PATH; restarting on the same "
                            "file resumes warm")
    p_srv.add_argument("--inject-faults", type=int, metavar="SEED",
                       default=None,
                       help="chaos testing: seeded worker crashes/hangs "
                            "and kernel compile failures inside query "
                            "handlers")
    _add_obs_args(p_srv)
    p_srv.set_defaults(func=_cmd_serve)

    p_qry = sub.add_parser(
        "query", help="send one request to a running timing daemon"
    )
    p_qry.add_argument("--host", default="127.0.0.1")
    p_qry.add_argument("--port", type=int, required=True)
    p_qry.add_argument("--op", required=True,
                       help="protocol op (ping, stats, open_session, "
                            "timing, signoff, paths, histogram, "
                            "apply_eco, ssta, discard, close_session, "
                            "shutdown)")
    p_qry.add_argument("--params", metavar="JSON", default=None,
                       help="op parameters as a JSON object")
    p_qry.add_argument("--session", default=None,
                       help="session id (from open_session)")
    p_qry.add_argument("--deadline", type=float, default=None,
                       help="server-side deadline, seconds from "
                            "admission")
    p_qry.add_argument("--retries", type=int, default=0,
                       help="client-side retries of retryable errors "
                            "(shed, deadline, daemon restart)")
    p_qry.add_argument("--timeout", type=float, default=30.0,
                       help="socket timeout, seconds")
    p_qry.set_defaults(func=_cmd_query)

    p_cmp = sub.add_parser(
        "campaign",
        help="factorial signoff sweeps: results DB, Pareto fronts, "
             "learned triage",
    )
    cmp_sub = p_cmp.add_subparsers(dest="campaign_command", required=True)

    def _add_campaign_run_args(parser):
        parser.add_argument("--db", default="campaign.db",
                            help="SQLite results database (appended to; "
                                 "reruns resume by content fingerprint)")
        parser.add_argument("--spec-file", metavar="JSON", default=None,
                            help="campaign spec JSON (default: the "
                                 "built-in Fig-9-style fig9_sweep)")
        parser.add_argument("--fraction", type=float, default=None,
                            help="fractional factorial: keep this "
                                 "fraction of the full design")
        parser.add_argument("--jobs", type=int, default=2,
                            help="configs signed off concurrently")
        parser.add_argument("--executor", default="thread",
                            choices=["serial", "thread", "process"])
        parser.add_argument("--chunk", type=int, default=8,
                            help="configs per wave (the durability "
                                 "granularity: results commit between "
                                 "waves)")
        parser.add_argument("--retries", type=int, default=1,
                            help="retry attempts per config")
        parser.add_argument("--timeout", type=float, default=None,
                            help="per-attempt wall-clock budget, seconds")
        _add_obs_args(parser)

    p_crun = cmp_sub.add_parser(
        "run", help="run (or resume) every configuration"
    )
    _add_campaign_run_args(p_crun)
    p_crun.add_argument("--configs", type=int, default=None,
                        help="run only the first N configs (smoke runs)")
    p_crun.add_argument("--no-resume", action="store_true",
                        help="recompute configs already in the DB "
                             "(results are still first-write-wins)")
    p_crun.add_argument("--via-daemon", metavar="HOST:PORT", default=None,
                        help="dispatch each config as an overlay session "
                             "against a running timing daemon; the "
                             "--design/--period flags must mirror the "
                             "daemon's base design")
    _add_design_args(p_crun)
    _add_library_args(p_crun)
    p_crun.set_defaults(func=_cmd_campaign_run)

    p_cpar = cmp_sub.add_parser(
        "pareto", help="extract and render the non-dominated front"
    )
    p_cpar.add_argument("--db", default="campaign.db")
    p_cpar.add_argument("--campaign", default=None,
                        help="campaign name (default: the DB's only one)")
    p_cpar.add_argument("--axes", default=None,
                        help="objectives as metric[:min|max],... "
                             "(default power_mw:min,area_um2:min,tns:max)")
    p_cpar.add_argument("--factors", default=None,
                        help="comma-separated level columns to show")
    p_cpar.add_argument("--limit", type=int, default=None,
                        help="print at most N front rows")
    p_cpar.add_argument("--out", metavar="FILE", default=None,
                        help="also write the table to FILE")
    p_cpar.set_defaults(func=_cmd_campaign_pareto)

    p_ctri = cmp_sub.add_parser(
        "triage",
        help="learned triage: train on a spread wave, sign off only "
             "the configs predicted Pareto-relevant",
    )
    _add_campaign_run_args(p_ctri)
    p_ctri.add_argument("--budget", type=float, default=0.5,
                        help="fraction of the full sweep to sign off")
    p_ctri.add_argument("--train", type=float, default=0.25,
                        help="fraction used for the training wave")
    p_ctri.add_argument("--surrogate", default="ridge",
                        choices=["ridge", "knn"])
    p_ctri.add_argument("--axes", default=None,
                        help="objectives as metric[:min|max],...")
    p_ctri.add_argument("--truth-db", metavar="DB", default=None,
                        help="full-sweep DB to score front recall "
                             "against")
    p_ctri.set_defaults(func=_cmd_campaign_triage)

    p_tr = sub.add_parser("trace", help="inspect exported trace files")
    tr_sub = p_tr.add_subparsers(dest="trace_command", required=True)
    p_sum = tr_sub.add_parser(
        "summarize",
        help="per-phase wall-clock breakdown of a --trace export",
    )
    p_sum.add_argument("file", help="Chrome-trace JSON or events JSONL")
    p_sum.set_defaults(func=_cmd_trace_summarize)

    p_hist = sub.add_parser("history", help="Fig 2/3 knowledge tables")
    p_hist.set_defaults(func=_cmd_history)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flush here so a reader that left early (`| head -1`) surfaces
        # below, not in the interpreter's flush at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nobody reads stdout any more: send what is still buffered to
        # devnull so the flush at exit stays quiet, and report failure.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FATAL
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for issue in exc.issues:
            print(f"  {issue.render()}", file=sys.stderr)
        return EXIT_FATAL
    except ReproError as exc:
        # Structured failure: one line with context, never a traceback.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
