"""Per-layer timing of the program, installed from outside at run time.

The traced run wraps public calls of each layer (``STA.__init__``,
``SupervisedExecutor.run``, ``DesignOverlay.apply``, ...) in spans of the
program's own tracer, so the exported tree nests the program's spans
(``signoff``, ``scenario_fanout``, ``closure`` ...) and the benchmark's
layer spans together. Nothing under ``src/`` is edited: each wrapper is
set on the defining module or class and on every module that imported
the function by name, and removed again by :meth:`LayerTracer.uninstall`.

A layer span's *self time* is its duration minus the union of the
intervals its child layer spans cover. A child is a layer span whose
nearest enclosing layer span is this one, found either through parent
links (worker spans ingested by the program keep their links) or by
interval nesting within one thread. Supervised tasks get an explicit
``runtime.task`` span parented to their fan-out, so work done in worker
threads counts toward its own layer and not toward the fan-out.
"""

from __future__ import annotations

import collections
import functools
import sys
import threading
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from repro.obs import tracing as obs_tracing

#: Marker attribute on every span the benchmark itself opens.
LAYER = "layer"

#: Span name -> the per-layer metric its self time adds to. Per-layer
#: metric names and units are declared in BENCHMARK.json; the README
#: defines each one.
_SELF_TIME = {
    "netlist.eco": "netlist.eco_s",
    "scheduler.signoff": "scheduler.signoff.self_s",
    "scheduler.fingerprint": "scheduler.fingerprint_s",
    "runtime.fanout": "runtime.fanout.self_s",
    "runtime.task": "runtime.fanout.self_s",
    "sta.build": "sta.build_s",
    "sta.propagate": "sta.propagate_s",
    "sta.run": "sta.checks_s",
    "kernel.compile": "kernel.compile_s",
    "kernel.run": "kernel.run_s",
    "kernel.report": "kernel.report_s",
    "hier.extract": "hier.extract_s",
    "hier.stub_build": "hier.stub_build_s",
    "incremental.cone": "incremental.cone_s",
    "incremental.full": "incremental.full_s",
    "closure.fix": "closure.fix_s",
    "serve.overlay_apply": "serve.overlay_apply_s",
    "serve.materialize": "serve.materialize_s",
    "serve.fingerprint": "serve.fingerprint_s",
    "serve.retime": "serve.retime_s",
    "serve.codec": "serve.codec_s",
    "campaign.block": "campaign.block_s",
    "campaign.store": "campaign.store_s",
    "ssta.run": "ssta.run_s",
    "ssta.tune": "ssta.tune_s",
    "power.summary": "power.summary_s",
    "liberty.make_library": "liberty.make_library_s",
}

#: Span name -> metric taking the span's whole duration.
_INCLUSIVE = {"hier.top_signoff": "hier.top_signoff_s"}

#: Span name -> metric counting the spans.
_COUNTED = {
    "scheduler.fingerprint": "scheduler.fingerprints",
    "sta.build": "sta.builds",
    "sta.run": "sta.runs",
    "kernel.compile": "kernel.compiles",
    "hier.extract": "hier.extractions",
    "incremental.cone": "incremental.cones",
    "incremental.full": "incremental.fulls",
    "ssta.run": "ssta.runs",
}


def owners(spans, keep: Callable = lambda s: True) -> Dict[int, object]:
    """The nearest enclosing kept span of every kept span, by span id.

    Two candidates compete: the nearest kept ancestor through parent
    links, and the innermost kept span of the same thread whose interval
    contains it. The one that started later is nested deeper and wins.
    """
    by_id = {s.span_id: s for s in spans}
    kept = [s for s in spans if keep(s)]
    by_thread: Dict[tuple, List] = collections.defaultdict(list)
    for s in kept:
        by_thread[(s.pid, s.tid)].append(s)
    container: Dict[int, object] = {}
    for group in by_thread.values():
        group.sort(key=lambda s: (s.start_s, -s.duration_s))
        stack: List = []
        for s in group:
            while stack and stack[-1].end_s < s.end_s:
                stack.pop()
            if stack:
                container[s.span_id] = stack[-1]
            stack.append(s)

    result = {}
    for s in kept:
        linked = by_id.get(s.parent_id)
        while linked is not None and not keep(linked):
            linked = by_id.get(linked.parent_id)
        owner = max((c for c in (linked, container.get(s.span_id))
                     if c is not None),
                    key=lambda c: c.start_s, default=None)
        if owner is not None:
            result[s.span_id] = owner
    return result


def _is_layer(span) -> bool:
    return bool(span.attrs.get(LAYER))


def rethreaded(spans) -> List:
    """Spans re-parented to their owners (see :func:`owners`), so that a
    tree reader attributes worker-thread work to the task that ran it."""
    owner = owners(spans)
    return [replace(s, parent_id=(owner[s.span_id].span_id
                                  if s.span_id in owner else None))
            for s in spans]


def self_times(spans) -> Dict[int, float]:
    """Self time of every layer span, keyed by span id (module docstring)."""
    children: Dict[int, List] = collections.defaultdict(list)
    layer = [s for s in spans if _is_layer(s)]
    for span_id, owner in owners(spans, _is_layer).items():
        children[owner.span_id].append(span_id)
    by_id = {s.span_id: s for s in layer}
    result = {}
    for s in layer:
        covered = 0.0
        reach = s.start_s
        for c in sorted((by_id[i] for i in children[s.span_id]),
                        key=lambda c: c.start_s):
            lo = max(c.start_s, reach)
            hi = min(c.end_s, s.end_s)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[s.span_id] = max(0.0, s.duration_s - covered)
    return result


class LayerTracer:
    """Wraps the program's layer calls and aggregates per-layer metrics.

    ``install`` sets a process-wide default tracer (so every thread
    records) and the wrappers; ``uninstall`` restores both. Counters
    that come from return values (cache hits, retries, ETM hits, ...)
    accumulate in :attr:`counts`.
    """

    def __init__(self):
        self.tracer = obs_tracing.Tracer()
        self.counts: collections.Counter = collections.Counter()
        self._lock = threading.Lock()
        self._undo: List[Callable] = []
        self._open = threading.local()
        self._queued: Dict[int, float] = {}
        self._waits: List[float] = []
        self._previous = None

    # ------------------------------------------------------------------ #
    # recording

    def add(self, **counts) -> None:
        with self._lock:
            self.counts.update(counts)

    def _names(self) -> List[str]:
        names = getattr(self._open, "names", None)
        if names is None:
            names = self._open.names = []
        return names

    def _span(self, name: str, parent_id: Optional[int] = None):
        ctx = obs_tracing.span(name, **{LAYER: True})
        if parent_id is not None and hasattr(ctx, "span"):
            ctx.span.parent_id = parent_id
        return ctx

    def timed(self, name, fn: Callable, after: Optional[Callable] = None,
              name_of: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a layer span; ``after(args, result)`` may
        record counters from the call's result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name_of(self._names()) if name_of else name
            names = self._names()
            names.append(span_name)
            try:
                with self._span(span_name):
                    result = fn(*args, **kwargs)
            finally:
                names.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # patching

    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def wrap_function(self, module, attr: str, name: str, **kw) -> None:
        """Wrap ``module.attr`` everywhere the program imported it."""
        original = getattr(module, attr)
        wrapper = self.timed(name, original, **kw)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def wrap_method(self, cls, attr: str, name: str, **kw) -> None:
        self._set(cls, attr, self.timed(name, cls.__dict__[attr], **kw))

    def install(self) -> None:
        self._previous = obs_tracing.set_default_tracer(self.tracer)
        _install_wrappers(self)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        obs_tracing.set_default_tracer(self._previous)

    # ------------------------------------------------------------------ #
    # admission wait (offer -> take, matched by item identity)

    def offered(self, item) -> None:
        with self._lock:
            self._queued[id(item)] = time.perf_counter()

    def taken(self, item, waited: bool = True) -> None:
        if item is None:
            return
        with self._lock:
            t0 = self._queued.pop(id(item), None)
            if t0 is not None and waited:
                self._waits.append(time.perf_counter() - t0)

    # ------------------------------------------------------------------ #
    # aggregation

    def metrics(self, ops: int, names) -> Dict[str, float]:
        """The per-layer metrics ``names``, each per operation of the
        traced window, except ratios and the mean admission wait."""
        spans = self.tracer.spans()
        own = self_times(spans)
        totals: collections.Counter = collections.Counter()
        for s in spans:
            if not s.attrs.get(LAYER):
                continue
            if s.name in _SELF_TIME:
                totals[_SELF_TIME[s.name]] += own[s.span_id]
            if s.name in _INCLUSIVE:
                totals[_INCLUSIVE[s.name]] += s.duration_s
            if s.name in _COUNTED:
                totals[_COUNTED[s.name]] += 1
        totals.update(self.counts)
        per_op = max(ops, 1)
        out = {name: totals[name] / per_op for name in names}
        hits, computed = totals["hier.etm_cache_hits"], \
            totals["hier.extractions"]
        out["hier.etm_hit_ratio"] = _ratio(hits, hits + computed)
        cones, fulls = totals["incremental.cones"], totals["incremental.fulls"]
        out["incremental.reuse_ratio"] = _ratio(cones, cones + fulls)
        hits, misses = totals["serve.cache_hits"], totals["serve.cache_misses"]
        out["serve.cache_hit_ratio"] = _ratio(hits, hits + misses)
        out["serve.admission_wait_ms"] = (
            1e3 * sum(self._waits) / len(self._waits) if self._waits else 0.0)
        return out

    def library_seconds(self) -> float:
        spans = self.tracer.spans()
        own = self_times(spans)
        return sum(own[s.span_id] for s in spans
                   if s.name == "liberty.make_library")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _install_wrappers(lt: LayerTracer) -> None:
    """The public calls each per-layer metric times."""
    import repro.campaign.blocks as blocks
    import repro.campaign.runner  # noqa: F401 - imports build_block by name
    import repro.core.fixes as fixes
    import repro.liberty.stdcells as stdcells
    import repro.netlist.transforms as transforms
    import repro.power as power
    import repro.serve.protocol as protocol
    import repro.sta.etm as etm
    import repro.sta.hier as hier
    import repro.sta.propagation as propagation
    import repro.sta.ssta as ssta
    from repro.campaign.store import CampaignStore
    from repro.core.closure import ClosureEngine
    from repro.runtime.supervisor import SupervisedExecutor, TaskStatus
    from repro.serve.admission import AdmissionQueue
    from repro.serve.overlay import DesignOverlay
    from repro.sta import scheduler
    from repro.sta.analysis import STA
    from repro.sta.incremental import IncrementalTimer
    from repro.sta.kernel import CompiledKernel, KernelCompileError

    lt.wrap_function(stdcells, "make_library", "liberty.make_library")

    def edited(args, result):
        if result is not None:
            lt.add(**{"netlist.eco_edits": 1})

    for attr in ("swap_vt", "resize", "upsize", "downsize"):
        lt.wrap_function(transforms, attr, "netlist.eco", after=edited)

    def signoff_counts(args, outcome):
        stats = outcome.cache_stats
        hits = stats.hits if stats is not None else len(outcome.cache_hits)
        lt.add(**{"scheduler.cache_hits": hits,
                  "scheduler.cache_misses":
                      len(outcome.reports) + len(outcome.degraded) - hits})

    lt.wrap_method(
        scheduler.SignoffScheduler, "signoff", "scheduler.signoff",
        after=signoff_counts,
        name_of=lambda open_names: ("hier.top_signoff"
                                    if "hier.signoff" in open_names
                                    else "scheduler.signoff"))
    for attr in ("scenario_fingerprint", "design_fingerprint"):
        lt.wrap_function(scheduler, attr, "scheduler.fingerprint")

    original_run = SupervisedExecutor.__dict__["run"]

    @functools.wraps(original_run)
    def supervised_run(self, task_list):
        with lt._span("runtime.fanout") as fanout:
            if self.executor != "process":
                task_list = [replace(t, fn=_task_fn(lt, t.fn, fanout))
                             for t in task_list]
            executions = original_run(self, task_list)
        lt.add(**{
            "runtime.tasks": len(executions),
            "runtime.retries": sum(max(0, e.attempts - 1)
                                   for e in executions),
            "runtime.quarantined": sum(e.status is TaskStatus.DEGRADED
                                       for e in executions),
        })
        return executions

    lt._set(SupervisedExecutor, "run", supervised_run)

    lt.wrap_method(STA, "__init__", "sta.build")
    lt.wrap_method(STA, "run", "sta.run")
    lt.wrap_function(propagation, "propagate", "sta.propagate")

    original_init = CompiledKernel.__dict__["__init__"]

    @functools.wraps(original_init)
    def kernel_init(self, *args, **kwargs):
        try:
            with lt._span("kernel.compile"):
                original_init(self, *args, **kwargs)
        except KernelCompileError:
            lt.add(**{"kernel.fallbacks": 1})
            raise

    lt._set(CompiledKernel, "__init__", kernel_init)
    lt.wrap_method(CompiledKernel, "run", "kernel.run")
    for attr in ("report", "reports"):
        lt.wrap_method(CompiledKernel, attr, "kernel.report")

    lt.wrap_function(etm, "extract_etm", "hier.extract")
    lt.wrap_function(hier, "build_stub_design", "hier.stub_build")
    lt.wrap_method(
        hier.HierScheduler, "signoff", "hier.signoff",
        after=lambda args, out: lt.add(
            **{"hier.etm_cache_hits": out.etm_cache_hits}))

    def cone_pins(args, result):
        lt.add(**{"incremental.cone_pins": args[0].last_cone_size})

    lt.wrap_method(IncrementalTimer, "update_cells", "incremental.cone",
                   after=cone_pins)
    lt.wrap_method(IncrementalTimer, "full_update", "incremental.full")

    engines = fixes.FIX_ENGINES
    for key, fn in list(engines.items()):
        engines[key] = lt.timed("closure.fix", fn)
        lt._undo.append(functools.partial(engines.__setitem__, key, fn))
    lt.wrap_method(
        ClosureEngine, "run", "closure.run",
        after=lambda args, report: lt.add(**{
            "closure.iterations": len(report.iterations),
            "closure.edits": sum(r.total_edits for r in report.iterations),
        }))

    original_offer = AdmissionQueue.__dict__["offer"]
    original_take = AdmissionQueue.__dict__["take"]

    @functools.wraps(original_offer)
    def offer(self, item):
        lt.offered(item)  # before: a worker may take it at once
        try:
            return original_offer(self, item)
        except Exception:
            lt.taken(item, waited=False)  # shed: it never queued
            raise

    @functools.wraps(original_take)
    def take(self, *args, **kwargs):
        item = original_take(self, *args, **kwargs)
        lt.taken(item)
        return item

    lt._set(AdmissionQueue, "offer", offer)
    lt._set(AdmissionQueue, "take", take)
    lt.wrap_method(DesignOverlay, "apply", "serve.overlay_apply")
    lt.wrap_method(DesignOverlay, "materialize", "serve.materialize")
    lt.wrap_method(DesignOverlay, "content_fingerprint", "serve.fingerprint")
    lt.wrap_method(
        scheduler.ScenarioTimerPool, "retime", "serve.retime",
        name_of=lambda open_names: (
            "serve.retime"
            if threading.current_thread() is not threading.main_thread()
            else "sta.pool_retime"))
    for attr in ("encode", "decode_line"):
        lt.wrap_function(protocol, attr, "serve.codec")

    lt.wrap_function(blocks, "build_block", "campaign.block")
    for attr in ("record_spec", "record_result", "record_failure"):
        lt.wrap_method(CampaignStore, attr, "campaign.store")

    lt.wrap_function(ssta, "run_ssta", "ssta.run")
    lt.wrap_function(ssta, "tune_to_yield", "ssta.tune")
    lt.wrap_function(power, "power_area_summary", "power.summary")


def _task_fn(lt: LayerTracer, fn: Callable, fanout) -> Callable:
    """A supervised task body recorded as a child of its fan-out span."""
    parent_id = getattr(fanout, "span_id", None)

    def run_task(payload, attempt=1):
        with lt._span("runtime.task", parent_id=parent_id):
            return fn(payload, attempt)

    return run_task
