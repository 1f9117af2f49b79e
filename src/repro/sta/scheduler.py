"""Parallel multi-corner signoff engine with content-addressed caching.

The paper's Section 2.3 "corner super-explosion" makes serial signoff the
dominant turnaround cost: scenario count grows multiplicatively with
modes, RC corners and voltage domains while each scenario is an
independent STA run. This module attacks both axes:

- **Parallelism** — :class:`SignoffScheduler` fans scenarios out over a
  ``concurrent.futures`` pool (thread or process, with a serial
  fallback). Scenarios are independent and deterministic, so parallel
  and serial runs produce *identical* reports; results are keyed by
  scenario name, never by completion order.

- **Caching** — :class:`ScenarioResultCache` memoizes per-scenario
  :class:`~repro.sta.reports.TimingReport` objects under a content hash
  of (netlist, constraints, corner parameters). Re-signoff after an ECO
  only recomputes scenarios whose inputs actually changed; the
  incremental timer (:mod:`repro.sta.incremental`) notifies registered
  caches when it edits a design so stale snapshots are dropped eagerly.

The same executor batches Monte Carlo sample evaluation
(:func:`parallel_map` with per-sample spawned seeds — see
:mod:`repro.spice.montecarlo`), keeping parallel and serial sampling
bit-identical.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import hashlib
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.beol.stack import BeolStack, default_stack
from repro.errors import SignoffError, TimingError
from repro.liberty.tables import LookupTable2D
from repro.netlist.design import Design
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.runtime.journal import RunJournal
from repro.runtime.supervisor import (
    RetryPolicy,
    SupervisedExecutor,
    SupervisedTask,
    TaskStatus,
)
from repro.sta.constraints import Constraints
from repro.sta.kernel import (
    ENGINES,
    CornerSpec,
    KernelCompileError,
    compile_kernel,
    kernel_full_run,
)
from repro.sta.reports import TimingReport

EXECUTORS = ("serial", "thread", "process")


# ---------------------------------------------------------------------- #
# content fingerprints


def _feed(h, obj) -> None:
    """Feed one object into a hash, stably across processes and runs.

    Handles the value types that appear in designs, constraints,
    libraries and scenario parameters; dict iteration order is
    normalized by sorting, floats by fixed-precision formatting, and
    lookup tables are hashed by their full index and value arrays.
    """
    if obj is None:
        h.update(b"~")
    elif isinstance(obj, bool):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, str, bytes)):
        h.update(repr(obj).encode() if not isinstance(obj, bytes) else obj)
    elif isinstance(obj, float):
        h.update(f"{obj:.12g}".encode())
    elif isinstance(obj, enum.Enum):
        _feed(h, obj.value)
    elif isinstance(obj, np.ndarray):
        h.update(str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, LookupTable2D):
        h.update(b"LUT")
        for array in (obj.index_1, obj.index_2, obj.values):
            _feed(h, array)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
            h.update(b",")
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=str):
            _feed(h, key)
            h.update(b":")
            _feed(h, obj[key])
            h.update(b",")
        h.update(b"}")
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    else:
        h.update(repr(obj).encode())


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        _feed(h, part)
    return h.hexdigest()


def design_fingerprint(design: Design) -> str:
    """Content hash of a netlist: ports, instances, connectivity, nets.

    Only *source* content is hashed — instance cells and pin-to-net
    connections, ports, and non-derivable net attributes (NDR promotion,
    bookkeeping cap). Net driver/load lists are derived by
    :meth:`~repro.netlist.design.Design.bind` and deliberately excluded,
    so the fingerprint is identical before and after binding.
    """
    h = hashlib.sha256()
    _feed(h, design.name)
    _feed(h, {name: d for name, d in design.ports.items()})
    for name in sorted(design.instances):
        inst = design.instances[name]
        _feed(h, (name, inst.cell_name, inst.connections, inst.location,
                  inst.dont_touch))
    for name in sorted(design.nets):
        net = design.nets[name]
        _feed(h, (name, net.ndr, net.extra_cap))
    return h.hexdigest()


def constraints_fingerprint(constraints: Constraints) -> str:
    """Content hash of an SDC-lite constraint set."""
    return _digest(constraints)


def _cell_digest(cell) -> str:
    """Content hash of one library cell: pins, arcs, every table entry."""
    return _digest(cell)


#: The cell-digest memo of the fingerprint pass open on each thread.
_pass_scope = threading.local()


@contextmanager
def fingerprint_pass():
    """Scope of one signoff pass: each library cell is hashed once.

    Yields a :class:`FingerprintMemo` of cell digests keyed by object
    identity; each entry holds its cell as the token, so an id cannot be
    reused while the scope lives. A scope opened inside another on the
    same thread (the hierarchical top-level stub signoff) reuses the
    outer memo. The memo is dropped when the outermost scope exits, so
    a cell edited between passes is hashed afresh; each thread has its
    own scope, so concurrent passes never share one.
    """
    outer = getattr(_pass_scope, "memo", None)
    memo = FingerprintMemo() if outer is None else outer
    _pass_scope.memo = memo
    try:
        yield memo
    finally:
        _pass_scope.memo = outer


def library_fingerprint(library) -> str:
    """Content hash of a library: condition metadata plus one digest
    per cell.

    Each cell digest covers the cell in full (pins, arcs, every lookup
    table entry), so a library mutated in place — cells added, removed
    or re-characterized — changes the fingerprint and misses the cache.
    Inside one :func:`fingerprint_pass` a cell object reached several
    times (one library behind every block's extraction view, corner
    cells copied into stub libraries) is hashed once; a call outside
    any pass hashes every cell afresh.
    """
    with fingerprint_pass() as memo:
        cells = [
            (name, memo.get(id(cell), cell,
                            lambda cell=cell: _cell_digest(cell)))
            for name, cell in sorted(library.cells.items())
        ]
    return _digest(library.name, library.process, library.vdd,
                   library.temp_c, library.default_max_transition, cells)


def scenario_fingerprint(scenario) -> str:
    """Content hash of one scenario's corner parameters.

    Covers the library content (condition metadata and full cell timing
    tables — see :func:`library_fingerprint`), the BEOL corner, analysis
    temperature, derates and the mode constraints.
    """
    return _digest(
        library_fingerprint(scenario.library),
        scenario.beol_corner_name,
        scenario.temp_c,
        scenario.derates,
        constraints_fingerprint(scenario.constraints),
    )


class FingerprintMemo:
    """Token-validated memo for content fingerprints.

    Three users share one pattern — cache the digest next to a validity
    token, recompute only when the token changes:

    - the daemon memoizes scenario fingerprints (libraries are bound
      once for its lifetime);
    - session overlays memoize their design fingerprint (valid until
      the commit version moves);
    - a :func:`fingerprint_pass` memoizes cell digests for one signoff
      pass, keyed by ``id(cell)`` with the cell itself as the token.

    ``get`` compares tokens by identity, then equality, so a commit
    counter, a bind timestamp, the keyed object or ``None``
    (compute-once) all work. The scheduler never memoizes across
    passes: a library mutated in place between passes must miss the
    result cache, so each pass re-hashes its cells.
    """

    def __init__(self):
        self._entries: Dict[object, Tuple[object, str]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key, token, compute) -> str:
        """The fingerprint for ``key``, recomputed iff ``token`` moved."""
        entry = self._entries.get(key)
        if entry is not None and (entry[0] is token or entry[0] == token):
            self.hits += 1
            return entry[1]
        self.misses += 1
        fp = compute()
        self._entries[key] = (token, fp)
        return fp

    def invalidate(self, key=None) -> None:
        """Drop one entry, or every entry when ``key`` is omitted."""
        if key is None:
            self._entries.clear()
        else:
            self._entries.pop(key, None)

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------- #
# result cache


@dataclass
class CacheStats:
    """Counters exposed for tests and reporting."""

    hits: int = 0
    misses: int = 0
    evaluations: int = 0
    invalidations: int = 0
    #: entries dropped because their content digest no longer matched
    #: (in-place corruption caught by ``verify=True``).
    corruptions: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _CacheEntry:
    report: TimingReport
    digest: Optional[str] = None  # content digest at store time


class ScenarioResultCache:
    """LRU cache of per-scenario timing reports.

    Keys are ``(design_name, design_fp, scenario_fp)``: the content hash
    guarantees correctness (any netlist/constraint/corner change misses),
    while the design *name* supports eager invalidation — an ECO on a
    live design drops every snapshot taken of it, old content never
    recurs.

    Recency is true LRU: both :meth:`store` and :meth:`lookup` refresh
    an entry's position, so the entry evicted at ``max_entries`` is the
    least recently *used*, not merely the oldest stored.

    ``verify=True`` arms integrity checking: each report's content
    digest is taken at store time and re-checked at lookup time; a
    mismatch (a cached object mutated behind the cache's back) drops the
    entry and reports a miss instead of serving corrupt timing.
    """

    def __init__(self, max_entries: int = 512, verify: bool = False):
        if max_entries < 1:
            raise TimingError("cache needs at least one entry")
        self.max_entries = max_entries
        self.verify = verify
        self._store: "OrderedDict[Tuple[str, str, str], _CacheEntry]" = \
            OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)

    def keys(self) -> List[Tuple[str, str, str]]:
        """Cached keys from least to most recently used."""
        return list(self._store)

    def lookup(self, design_name: str, design_fp: str,
               scenario_fp: str) -> Optional[TimingReport]:
        key = (design_name, design_fp, scenario_fp)
        entry = self._store.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if self.verify and entry.digest is not None \
                and entry.report.content_digest() != entry.digest:
            del self._store[key]
            self.stats.corruptions += 1
            self.stats.misses += 1
            return None
        self._store.move_to_end(key)
        self.stats.hits += 1
        return entry.report

    def store(self, design_name: str, design_fp: str, scenario_fp: str,
              report: TimingReport) -> None:
        key = (design_name, design_fp, scenario_fp)
        digest = report.content_digest() if self.verify else None
        self._store[key] = _CacheEntry(report=report, digest=digest)
        self._store.move_to_end(key)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)

    def invalidate_design(self, design_name: str) -> int:
        """Drop every cached report of the named design (ECO hygiene)."""
        stale = [k for k in self._store if k[0] == design_name]
        for key in stale:
            del self._store[key]
        self.stats.invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        self.stats.invalidations += len(self._store)
        self._store.clear()


# ---------------------------------------------------------------------- #
# warm incremental timers (ECO-loop signoff)


class ScenarioTimerPool:
    """One registered :class:`~repro.sta.incremental.IncrementalTimer`
    per scenario, kept warm across ECO iterations.

    Re-signoff inside a closure loop used to re-bind a fresh STA per
    scenario per iteration — full graph construction, parasitic
    extraction and propagation every time. The pool instead keeps each
    scenario's timer alive: a footprint-preserving edit set re-times only
    its downstream cone, a topology-changing edit set (or an edit the
    timer cannot absorb) falls back to the timer's honest
    :meth:`~repro.sta.incremental.IncrementalTimer.full_update`.

    Cache invalidation is keyed to the actual edit set: registered
    :class:`ScenarioResultCache` objects are attached to every timer, and
    the timers only invalidate them when an update really edits the
    design — a no-op pass (empty edit list) leaves cached scenario
    reports intact.

    The pool is a *serial* engine by design: timers hold live STA state
    bound to the shared design, which is exactly the thing PR 1 had to
    deep-copy to make thread workers safe. Warm-starting and fan-out are
    different trades; the closure loop wants the former.
    """

    def __init__(self, engine: str = "reference", fault_injector=None):
        from repro.sta.incremental import IncrementalTimer  # noqa: F401

        if engine not in ENGINES:
            raise TimingError(
                f"unknown engine {engine!r}; pick from {ENGINES}"
            )
        self.engine = engine
        #: Optional :class:`repro.testing.faults.FaultInjector` whose
        #: kernel-scoped faults fire at vector-kernel compile time, so
        #: chaos plans exercise the reference fallback on warm pools.
        self.fault_injector = fault_injector
        self._timers: Dict[str, "IncrementalTimer"] = {}
        self._caches: List[ScenarioResultCache] = []
        #: Retime calls served by a warm timer's cone-limited update.
        self.incremental_retimes = 0
        #: Retime calls that re-ran fully (topology change or fallback).
        self.full_retimes = 0
        #: Fresh STA constructions (first signoff of a scenario).
        self.builds = 0
        #: Incremental attempts the timer refused (arc-set change) that
        #: were transparently downgraded to a full update.
        self.fallbacks = 0

    def register_cache(self, cache: ScenarioResultCache) -> None:
        """Attach a result cache to every current and future timer."""
        self._caches.append(cache)
        for timer in self._timers.values():
            timer.register_cache(cache)

    def get(self, name: str):
        """The warm timer for ``name``, or None before its first build."""
        return self._timers.get(name)

    def names(self) -> List[str]:
        return sorted(self._timers)

    def adopt(self, name: str, sta) -> "IncrementalTimer":
        """Register an already-run STA as scenario ``name``'s timer."""
        from repro.sta.incremental import IncrementalTimer

        timer = IncrementalTimer(sta, engine=self.engine)
        for cache in self._caches:
            timer.register_cache(cache)
        self._timers[name] = timer
        return timer

    def discard(self, name: str) -> None:
        self._timers.pop(name, None)

    @property
    def retimes(self) -> int:
        return self.incremental_retimes + self.full_retimes

    @property
    def reuse_ratio(self) -> float:
        """Fraction of retimes served cone-limited by a warm timer."""
        total = self.retimes
        return self.incremental_retimes / total if total else 0.0

    def retime(
        self,
        name: str,
        edited_instances: Sequence[str] = (),
        topology_changed: bool = False,
        build: Optional[Callable[[], object]] = None,
    ) -> TimingReport:
        """Re-time scenario ``name`` after an ECO edit set.

        ``edited_instances`` names the footprint-preserved instances the
        pass touched; ``topology_changed`` forces the full path. A
        scenario without a warm timer needs ``build`` (a zero-arg
        callable returning a constructed-but-not-necessarily-run STA);
        its first retime is a full build, later ones warm-start.
        """
        timer = self._timers.get(name)
        if timer is None:
            if build is None:
                raise TimingError(
                    f"no warm timer for scenario {name!r} and no build "
                    "callable supplied"
                )
            with obs_tracing.span("sta_build", scenario=name):
                sta = build()
                if sta.prop is None or sta.report is None:
                    sta.report = self._full_run(sta, name)
            self.adopt(name, sta)
            self.builds += 1
            return sta.report
        if topology_changed:
            self.full_retimes += 1
            return timer.full_update()
        try:
            report = timer.update_cells(edited_instances)
        except TimingError:
            # The edit outran the cone update (arc set changed); the
            # timer is untouched, so the honest fallback still applies.
            self.fallbacks += 1
            self.full_retimes += 1
            return timer.full_update()
        self.incremental_retimes += 1
        return report

    def _full_run(self, sta, name: str) -> TimingReport:
        """Run a fresh STA through the pool's engine (vector falls back
        to the reference run when the scenario will not compile)."""
        if self.engine == "vector":
            try:
                if self.fault_injector is not None:
                    self.fault_injector.fire_kernel(name)
                report, _ = kernel_full_run(sta)
                return report
            except KernelCompileError as exc:
                obs_metrics.inc("kernel.fallbacks")
                with obs_tracing.span("kernel_fallback", scenario=name,
                                      error=str(exc)):
                    pass
        return sta.run()


# ---------------------------------------------------------------------- #
# executor


@dataclass
class TracedResult:
    """A worker result plus the spans recorded while computing it.

    Workers run in threads or separate processes, so their spans cannot
    be appended to the coordinator's tracer directly; they travel back
    with the result (pickled across process pools) and are
    :meth:`~repro.obs.tracing.Tracer.ingest`-ed afterwards. Spans of
    *failed* attempts die with the attempt — only the succeeding
    attempt's spans reach the trace.
    """

    value: object
    spans: List[obs_tracing.Span] = field(default_factory=list)


def _run_scenario_job(job, attempt: int = 1):
    """Module-level worker so process pools can pickle it.

    ``isolate`` makes the worker analyze a private deep copy of the
    design. Running STA *mutates* the design — :class:`~repro.sta.analysis.STA`
    calls :meth:`Design.bind`, which rebuilds every net's driver/load
    lists — so thread-pool workers sharing one Design object race:
    one worker's re-bind momentarily nulls ``net.driver`` while another
    is mid-propagation, crashing or silently corrupting slacks. Process
    pools get this isolation for free from pickling; threads must copy.
    Abandoned (timed-out) attempts are a third overlap source: the hung
    worker may still be binding when the retry starts, so supervision
    with timeouts also forces isolation.

    ``injector`` (a :class:`repro.testing.faults.FaultInjector`) fires
    planned faults at (scenario, attempt) coordinates before analysis —
    the hook the chaos suite drives crash/hang/pool-death recovery with.

    ``trace`` arms per-worker tracing: the attempt records into a
    private tracer (thread-local, so parallel workers never interleave)
    and returns a :class:`TracedResult` carrying its spans home.
    """
    scenario, design, stack, isolate, injector, trace = job
    if not trace:
        if injector is not None:
            injector.fire(scenario.name, attempt)
        if isolate:
            design = copy.deepcopy(design)
        return scenario.run(design, stack)

    local = obs_tracing.Tracer()
    with obs_tracing.use(local):
        with local.span("scenario", scenario=scenario.name,
                        attempt=attempt, isolated=isolate):
            if injector is not None:
                injector.fire(scenario.name, attempt)
            if isolate:
                with local.span("isolate_design", design=design.name):
                    design = copy.deepcopy(design)
            with local.span("sta_run", scenario=scenario.name):
                report = scenario.run(design, stack)
    return TracedResult(value=report, spans=local.spans())


def parallel_map(fn: Callable, items: Iterable, jobs: int = 1,
                 executor: str = "thread") -> List:
    """Map ``fn`` over ``items``, preserving order, optionally in a pool.

    ``jobs <= 1`` (or a single item, or ``executor="serial"``) runs
    serially in-process. Results are returned in input order regardless
    of completion order, so callers see identical output for any job
    count. ``executor="process"`` requires ``fn`` and the items to be
    picklable.
    """
    if executor not in EXECUTORS:
        raise TimingError(
            f"unknown executor {executor!r}; pick from {EXECUTORS}"
        )
    work = list(items)
    if jobs <= 1 or len(work) <= 1 or executor == "serial":
        return [fn(item) for item in work]
    pool_cls = ProcessPoolExecutor if executor == "process" \
        else ThreadPoolExecutor
    with pool_cls(max_workers=min(jobs, len(work))) as pool:
        return list(pool.map(fn, work))


# ---------------------------------------------------------------------- #
# the scheduler


class ScenarioStatus(enum.Enum):
    """How one scenario's report came to be (or failed to)."""

    OK = "ok"              # computed first try
    CACHED = "cached"      # served from the in-memory result cache
    JOURNALED = "journaled"  # restored from the on-disk checkpoint journal
    RETRIED = "retried"    # computed after at least one failed attempt
    DEGRADED = "degraded"  # quarantined: every attempt failed


@dataclass
class ScenarioRecord:
    """Supervision bookkeeping for one scenario of one signoff pass."""

    name: str
    status: ScenarioStatus
    attempts: int = 1
    fingerprint: str = ""
    error: Optional[str] = None  # "ErrorClass: message" when DEGRADED
    error_chain: List[str] = field(default_factory=list)


@dataclass
class SignoffOutcome:
    """One signoff pass: merged results plus scheduling bookkeeping.

    ``reports`` holds only *successful* scenarios; quarantined ones
    appear in ``degraded`` (and in ``records`` with their structured
    error). A clean pass has ``degraded == []``.
    """

    reports: Dict[str, TimingReport]
    cache_hits: List[str]
    recomputed: List[str]
    jobs: int
    wall_time_s: float = 0.0
    records: Dict[str, ScenarioRecord] = field(default_factory=dict)
    degraded: List[str] = field(default_factory=list)
    journal_hits: List[str] = field(default_factory=list)
    executor_used: str = ""
    fallbacks: List[str] = field(default_factory=list)
    events: List[str] = field(default_factory=list)
    #: This pass's cache activity (None when the scheduler runs
    #: uncached): the shared cache's counters at pass end minus their
    #: values at pass start, so a warm re-signoff reads "N hits / 0
    #: misses" even though the cache object is long-lived.
    cache_stats: Optional[CacheStats] = None

    @property
    def ok(self) -> bool:
        return not self.degraded

    @property
    def result(self):
        from repro.sta.mcmm import McmmResult

        if not self.reports:
            raise SignoffError(
                "no scenario succeeded; nothing to merge",
                degraded=list(self.degraded),
            )
        return McmmResult(reports=self.reports)

    def _status_label(self, name: str) -> str:
        record = self.records.get(name)
        return record.status.value.upper() if record else "OK"

    def render(self, mode: str = "setup") -> str:
        """Deterministic signoff table — byte-identical for any job
        count (wall time deliberately excluded). Degraded scenarios show
        their structured error instead of slacks."""
        lines = [f"{'scenario':<24} {'status':<10} {'WNS':>10} "
                 f"{'TNS':>12} {'viol':>6}"]
        for name in sorted(set(self.reports) | set(self.degraded)):
            status = self._status_label(name)
            if name in self.reports:
                report = self.reports[name]
                lines.append(
                    f"{name:<24} {status:<10} {report.wns(mode):10.3f} "
                    f"{report.tns(mode):12.3f} "
                    f"{report.violation_count(mode):6d}"
                )
            else:
                record = self.records[name]
                lines.append(
                    f"{name:<24} {status:<10} {'-':>10} {'-':>12} {'-':>6}  "
                    f"{record.error or 'unknown failure'}"
                )
        if self.reports:
            result = self.result
            lines.append(
                f"{'merged':<24} {'':<10} {result.merged_wns(mode):10.3f} "
                f"{result.merged_tns(mode):12.3f}"
            )
            lines.append(f"worst scenario: {result.worst_scenario(mode)}")
        else:
            lines.append("no scenario succeeded; nothing to merge")
        if self.degraded:
            lines.append(
                f"DEGRADED: {len(self.degraded)}/{len(self.records)} "
                f"scenario(s) quarantined"
            )
        if self.cache_stats is not None:
            stats = self.cache_stats
            lines.append(
                f"cache: {stats.hits} hit(s) / {stats.misses} miss(es) "
                f"({stats.hit_rate():.0%} hit rate), "
                f"{stats.evaluations} evaluation(s), "
                f"{stats.invalidations} invalidation(s)"
            )
        return "\n".join(lines)


class SignoffScheduler:
    """Runs an MCMM scenario set in parallel with result caching.

    Beyond fan-out and caching, the scheduler is *supervised*: scenario
    attempts that crash or exceed ``policy.timeout_s`` are retried with
    exponential backoff; a scenario that exhausts its attempts is
    quarantined as DEGRADED (reported with its structured error) instead
    of aborting the batch; a dead worker pool falls back
    process -> thread -> serial; and an optional on-disk journal
    checkpoints each completed scenario so a killed run resumes from
    where it died.

    Args:
        scenarios: the MCMM views to sign off (unique names).
        stack: BEOL stack shared by all scenarios.
        jobs: worker count; 1 = serial.
        executor: "thread" (default), "process", or "serial".
        cache: a shared :class:`ScenarioResultCache`; None disables
            caching (every scenario recomputes every pass).
        policy: retry/timeout policy; default = 2 retries, no timeout.
        journal: a :class:`~repro.runtime.journal.RunJournal` for
            checkpoint/resume; None disables journaling.
        keep_going: False raises :class:`~repro.errors.SignoffError`
            after the batch if any scenario degraded (the journal still
            records every success first, so a re-run resumes).
        fault_injector: a :class:`repro.testing.faults.FaultInjector`
            firing planned faults inside workers (chaos testing).
        allow_fallback: permit executor downgrade on pool death.
        engine: "reference" walks the object graph per scenario (the
            oracle); "vector" batches all scenarios of a mode through
            one compiled :class:`~repro.sta.kernel.CompiledKernel`.
            Plans with worker-scoped faults (crash/hang/pool death)
            force the reference path — the supervisor owns
            retry/quarantine semantics there — while kernel-scoped
            faults ride the vector path to chaos-test the
            compile-failure fallback ladder.
    """

    def __init__(
        self,
        scenarios: Sequence,
        stack: Optional[BeolStack] = None,
        jobs: int = 1,
        executor: str = "thread",
        cache: Optional[ScenarioResultCache] = None,
        policy: Optional[RetryPolicy] = None,
        journal: Optional[RunJournal] = None,
        keep_going: bool = True,
        fault_injector=None,
        allow_fallback: bool = True,
        engine: str = "reference",
    ):
        if not scenarios:
            raise TimingError("signoff needs at least one scenario")
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise TimingError("scenario names must be unique")
        if jobs < 1:
            raise TimingError("jobs must be >= 1")
        if executor not in EXECUTORS:
            raise TimingError(
                f"unknown executor {executor!r}; pick from {EXECUTORS}"
            )
        if engine not in ENGINES:
            raise TimingError(
                f"unknown engine {engine!r}; pick from {ENGINES}"
            )
        self.scenarios = list(scenarios)
        self.stack = stack or default_stack()
        self.jobs = jobs
        self.executor = executor
        self.cache = cache
        self.policy = policy or RetryPolicy()
        self.journal = journal
        self.keep_going = keep_going
        self.fault_injector = fault_injector
        self.allow_fallback = allow_fallback
        self.engine = engine
        #: Scenario STA evaluations actually performed (cache misses);
        #: the call counter the regression tests assert against.
        self.evaluations = 0
        #: Individual attempts, including failed ones (>= evaluations).
        self.attempts = 0

    def _needs_isolation(self, todo_count: int) -> bool:
        """Must workers analyze private design copies?

        STA mutates the design it analyzes (bind rebuilds net
        driver/load lists), so isolation is required whenever two
        analyses can overlap in this process: parallel thread workers,
        or an abandoned (timed-out / hung) attempt still running while
        its retry starts. The process executor is included too because
        pool death falls it back to threads.
        """
        if self.policy.timeout_s is not None or \
                self.fault_injector is not None:
            return True
        return self.jobs > 1 and todo_count > 1 and self.executor != "serial"

    def signoff(self, design: Design) -> SignoffOutcome:
        """Run (or reuse) every scenario and merge the results."""
        with fingerprint_pass(), obs_tracing.span(
            "signoff", design=design.name, scenarios=len(self.scenarios),
            jobs=self.jobs, executor=self.executor,
        ) as signoff_span:
            return self._signoff_traced(design, signoff_span)

    def _pass_cache_stats(self, before: CacheStats) -> CacheStats:
        """This pass's cache counter deltas (the cache is long-lived)."""
        now = self.cache.stats
        return CacheStats(
            hits=now.hits - before.hits,
            misses=now.misses - before.misses,
            evaluations=now.evaluations - before.evaluations,
            invalidations=now.invalidations - before.invalidations,
            corruptions=now.corruptions - before.corruptions,
        )

    def _signoff_traced(self, design: Design,
                        signoff_span) -> SignoffOutcome:
        tracer = obs_tracing.active_tracer()
        t0 = time.perf_counter()
        stats_before = (copy.copy(self.cache.stats)
                        if self.cache is not None else None)
        reports: Dict[str, TimingReport] = {}
        records: Dict[str, ScenarioRecord] = {}
        hits: List[str] = []
        journal_hits: List[str] = []
        todo = []
        with obs_tracing.span("cache_triage",
                              scenarios=len(self.scenarios)):
            design_fp = design_fingerprint(design)
            for scenario in self.scenarios:
                fp = scenario_fingerprint(scenario)
                key = (design.name, design_fp, fp)
                cached = None
                if self.cache is not None:
                    cached = self.cache.lookup(*key)
                if cached is not None:
                    reports[scenario.name] = cached
                    hits.append(scenario.name)
                    records[scenario.name] = ScenarioRecord(
                        name=scenario.name, status=ScenarioStatus.CACHED,
                        fingerprint=fp,
                    )
                    with obs_tracing.span("scenario",
                                          scenario=scenario.name,
                                          source="cache"):
                        pass
                    continue
                if self.journal is not None:
                    entry = self.journal.lookup("scenario", key)
                    if entry is not None:
                        reports[scenario.name] = entry
                        journal_hits.append(scenario.name)
                        records[scenario.name] = ScenarioRecord(
                            name=scenario.name,
                            status=ScenarioStatus.JOURNALED,
                            fingerprint=fp,
                        )
                        if self.cache is not None:
                            self.cache.store(*key, entry)
                        with obs_tracing.span("scenario",
                                              scenario=scenario.name,
                                              source="journal"):
                            pass
                        continue
                todo.append((scenario, fp))

        events: List[str] = []
        recomputed: List[str] = []
        degraded: List[str] = []

        def absorb(scenario, fp, report, status, attempts=1,
                   error_chain=()):
            """Record one freshly computed scenario (either engine)."""
            key = (design.name, design_fp, fp)
            reports[scenario.name] = report
            recomputed.append(scenario.name)
            records[scenario.name] = ScenarioRecord(
                name=scenario.name, status=status, attempts=attempts,
                fingerprint=fp, error_chain=list(error_chain),
            )
            if self.cache is not None:
                self.cache.store(*key, report)
                self.cache.stats.evaluations += 1
            if self.journal is not None:
                was_available = self.journal.available
                if not self.journal.record("scenario", key, report) \
                        and was_available:
                    # First journal IO failure: the run continues, but
                    # the checkpoint is gone — surface it, loudly.
                    events.append(
                        "checkpoint unavailable: "
                        f"{self.journal.last_error or 'journal IO error'}"
                    )
                    obs_metrics.inc("runtime.journal.io_errors")

        ref_todo = list(todo)
        # Worker-scoped faults (crash/hang/pool death) need the
        # per-scenario fan-out where the supervisor owns retry and
        # quarantine; kernel-scoped faults deliberately ride the vector
        # path so chaos plans exercise the compile-failure fallback.
        vector_chaos_ok = (
            self.fault_injector is None
            or not self.fault_injector.plan.worker_faults()
        )
        if self.engine == "vector" and vector_chaos_ok and todo:
            # Batch whole modes: scenarios sharing a constraint set
            # become corner lanes of one compiled kernel. A mode that
            # fails to compile (e.g. libraries with incongruent arc
            # sets) falls back to the reference fan-out below.
            ref_todo = []
            modes: "OrderedDict[str, list]" = OrderedDict()
            for scenario, fp in todo:
                modes.setdefault(
                    constraints_fingerprint(scenario.constraints), []
                ).append((scenario, fp))
            with obs_tracing.span("vector_signoff", modes=len(modes),
                                  scenarios=len(todo)):
                for group in modes.values():
                    try:
                        if self.fault_injector is not None:
                            for scenario, _ in group:
                                self.fault_injector.fire_kernel(
                                    scenario.name
                                )
                        specs = [CornerSpec.from_scenario(s, self.stack)
                                 for s, _ in group]
                        kernel = compile_kernel(
                            design, group[0][0].constraints, specs,
                            stack=self.stack,
                        )
                        kernel.run()
                    except KernelCompileError as exc:
                        obs_metrics.inc("kernel.fallbacks")
                        events.append(
                            "vector engine fell back to reference for "
                            f"{len(group)} scenario(s): {exc}"
                        )
                        for scenario, _ in group:
                            with obs_tracing.span(
                                "kernel_fallback",
                                scenario=scenario.name,
                                error=str(exc),
                            ):
                                pass
                        ref_todo.extend(group)
                        continue
                    for ci, (scenario, fp) in enumerate(group):
                        report = kernel.report(ci)
                        report.scenario = scenario.name
                        with obs_tracing.span("scenario",
                                              scenario=scenario.name,
                                              source="vector"):
                            pass
                        self.attempts += 1
                        absorb(scenario, fp, report, ScenarioStatus.OK)

        isolate = self._needs_isolation(len(ref_todo))
        supervisor = SupervisedExecutor(
            jobs=self.jobs,
            executor=self.executor,
            policy=self.policy,
            allow_fallback=self.allow_fallback,
            on_event=events.append,
        )
        with obs_tracing.span("scenario_fanout", count=len(ref_todo),
                              isolated=isolate) as fanout_span:
            executions = supervisor.run([
                SupervisedTask(
                    name=scenario.name,
                    fn=_run_scenario_job,
                    payload=(scenario, design, self.stack, isolate,
                             self.fault_injector, tracer is not None),
                )
                for scenario, _ in ref_todo
            ])
        self.evaluations += len(todo)

        for (scenario, fp), execution in zip(ref_todo, executions):
            self.attempts += execution.attempts
            if execution.status is TaskStatus.DEGRADED:
                degraded.append(scenario.name)
                records[scenario.name] = ScenarioRecord(
                    name=scenario.name, status=ScenarioStatus.DEGRADED,
                    attempts=execution.attempts, fingerprint=fp,
                    error=(f"{type(execution.error).__name__}: "
                           f"{execution.error}"),
                    error_chain=list(execution.error_chain),
                )
                continue
            report = execution.result
            if isinstance(report, TracedResult):
                # Worker spans come home with the result; adopt them
                # under the fan-out span in submission order, so span
                # ids stay deterministic for any jobs count and the
                # summary's self-time attribution stays additive.
                if tracer is not None:
                    tracer.ingest(report.spans,
                                  parent_id=fanout_span.span_id)
                report = report.value
            status = (ScenarioStatus.OK
                      if execution.status is TaskStatus.OK
                      else ScenarioStatus.RETRIED)
            absorb(scenario, fp, report, status,
                   attempts=execution.attempts,
                   error_chain=execution.error_chain)

        obs_metrics.inc("signoff.passes")
        obs_metrics.inc("signoff.cache.hits", len(hits))
        obs_metrics.inc("signoff.cache.misses",
                        len(self.scenarios) - len(hits))
        obs_metrics.inc("signoff.journal.hits", len(journal_hits))
        obs_metrics.inc("signoff.evaluations", len(todo))
        obs_metrics.inc("signoff.degraded", len(degraded))
        if self.cache is not None:
            obs_metrics.set_gauge("signoff.cache.entries", len(self.cache))

        ordered = {
            s.name: reports[s.name] for s in self.scenarios
            if s.name in reports
        }
        outcome = SignoffOutcome(
            reports=ordered,
            cache_hits=hits,
            recomputed=recomputed,
            jobs=self.jobs,
            wall_time_s=time.perf_counter() - t0,
            records=records,
            degraded=degraded,
            journal_hits=journal_hits,
            executor_used=supervisor.executor_used,
            fallbacks=list(supervisor.fallbacks),
            events=events,
            cache_stats=(self._pass_cache_stats(stats_before)
                         if self.cache is not None else None),
        )
        if degraded and not self.keep_going:
            # Every success is already cached and journaled, so the
            # aborted batch resumes from here.
            raise SignoffError(
                f"{len(degraded)} scenario(s) degraded and "
                "keep_going is disabled",
                scenarios=sorted(degraded),
            )
        return outcome

    def run(self, design: Design):
        """McmmResult-only convenience wrapper over :meth:`signoff`."""
        return self.signoff(design).result
