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
  only recomputes scenarios whose inputs actually changed: the content
  key alone decides whether a cached report is valid.

The same supervised executor batches Monte Carlo sample evaluation
(:func:`repro.spice.montecarlo.evaluate_samples` with per-sample
spawned seeds), keeping parallel and serial sampling bit-identical.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import functools
import hashlib
import threading
import time
from collections import OrderedDict
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
    compile_kernel,
    run_on_engine,
)
from repro.sta.reports import TimingReport

EXECUTORS = ("serial", "thread", "process")


# ---------------------------------------------------------------------- #
# content fingerprints


def _feed(out: List[bytes], obj) -> None:
    """Append the encoding of one object to ``out``, stably across
    processes and runs.

    The encoding is a persisted format: run-journal and checkpoint
    keys, ETM cache keys and campaign DB fingerprints are digests of
    it, so any change to its bytes makes every stored entry miss. The
    byte-identity and pinned-digest tests in
    ``tests/sta/test_fingerprints.py`` guard it.

    Handles the value types that appear in designs, constraints,
    libraries and scenario parameters; dict iteration order is
    normalized by sorting, floats by fixed-precision formatting, and
    lookup tables are hashed by their full index and value arrays. Each
    value is encoded by the entry of ``_ENCODERS`` for its exact type,
    which :func:`_encoder_for` picks the first time the type is seen.
    """
    _ENCODERS[type(obj)](out, obj)


def _encode_none(out, obj) -> None:
    out.append(b"~")


def _encode_bool(out, obj) -> None:
    out.append(b"T" if obj else b"F")


def _encode_bytes(out, obj) -> None:
    out.append(obj)


def _encode_repr(out, obj) -> None:
    out.append(repr(obj).encode())


def _encode_float(out, obj) -> None:
    out.append(f"{obj:.12g}".encode())


def _encode_enum(out, obj) -> None:
    _feed(out, obj.value)


def _encode_ndarray(out, obj) -> None:
    # ndarray.tobytes writes C order for any layout: the same bytes as
    # np.ascontiguousarray(obj).tobytes(), without the extra copy.
    out.append(_shape_bytes(obj.shape))
    out.append(np.ndarray.tobytes(obj))


@functools.lru_cache(maxsize=256)
def _shape_bytes(shape: Tuple[int, ...]) -> bytes:
    # Cached: formatting a shape costs more than copying a small
    # table's bytes, and a library repeats a handful of shapes.
    return str(shape).encode()


def _encode_sequence(out, obj) -> None:
    encoders = _ENCODERS
    out.append(b"[")
    for item in obj:
        encoders[type(item)](out, item)
        out.append(b",")
    out.append(b"]")


def _encode_dict(out, obj) -> None:
    encoders = _ENCODERS
    out.append(b"{")
    for key in sorted(obj, key=str):
        encoders[type(key)](out, key)
        out.append(b":")
        value = obj[key]
        encoders[type(value)](out, value)
        out.append(b",")
    out.append(b"}")


def _fields_encoder(head: bytes, names: Tuple[str, ...]):
    """Encoder writing ``head``, then each named attribute in order."""
    def encode(out, obj) -> None:
        encoders = _ENCODERS
        out.append(head)
        for name in names:
            value = getattr(obj, name)
            encoders[type(value)](out, value)
    return encode


def _field_names(obj) -> Tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(obj))


def _encode_class(out, obj) -> None:
    # A class passed as a value. Whether it is a dataclass depends on
    # the class itself, not on its type (``type`` for nearly every
    # class), so this rule is decided per value.
    if dataclasses.is_dataclass(obj):
        _fields_encoder(type(obj).__name__.encode(),
                        _field_names(obj))(out, obj)
    else:
        _encode_repr(out, obj)


def _encoder_for(cls):
    """The encoder for values of exact type ``cls``: the first rule
    that matches, in the order the format defines."""
    if cls is type(None):
        return _encode_none
    if issubclass(cls, bool):
        return _encode_bool
    if issubclass(cls, bytes):
        return _encode_bytes
    if issubclass(cls, (int, str)):
        return _encode_repr
    if issubclass(cls, float):
        return _encode_float
    if issubclass(cls, enum.Enum):
        return _encode_enum
    if issubclass(cls, np.ndarray):
        return _encode_ndarray
    if issubclass(cls, LookupTable2D):
        return _fields_encoder(b"LUT", ("index_1", "index_2", "values"))
    if issubclass(cls, (list, tuple)):
        return _encode_sequence
    if issubclass(cls, dict):
        return _encode_dict
    if issubclass(cls, type):
        return _encode_class
    if dataclasses.is_dataclass(cls):
        return _fields_encoder(cls.__name__.encode(), _field_names(cls))
    return _encode_repr


class _EncoderTable(dict):
    """Encoder per exact value type, filled on first sight.

    Two threads meeting a new type at once store equivalent encoders,
    so filling needs no lock.
    """

    def __missing__(self, cls):
        encode = self[cls] = _encoder_for(cls)
        return encode


_ENCODERS = _EncoderTable()


#: Encoded pieces gathered before they are hashed: a cell digest is one
#: update, while a large design's encoding never sits in memory whole.
_PIECES_PER_UPDATE = 4096


def _digest(*parts) -> str:
    """SHA-256 of the :func:`_feed` encoding of ``parts``, in order.

    The digest is persisted (journal keys, ETM cache keys, campaign DB
    fingerprints and derived seeds): keep the encoding byte-identical.
    """
    return _digest_of(parts)


def _digest_of(parts: Iterable) -> str:
    """:func:`_digest` of the values an iterable yields, consumed lazily."""
    h = hashlib.sha256()
    out: List[bytes] = []
    for part in parts:
        _feed(out, part)
        if len(out) >= _PIECES_PER_UPDATE:
            h.update(b"".join(out))
            out.clear()
    h.update(b"".join(out))
    return h.hexdigest()


def design_fingerprint(design: Design) -> str:
    """Content hash of a netlist: ports, instances, connectivity, nets.

    Only *source* content is hashed — instance cells and pin-to-net
    connections, ports, and non-derivable net attributes (NDR promotion,
    bookkeeping cap). Net driver/load lists are derived by
    :meth:`~repro.netlist.design.Design.bind` and deliberately excluded,
    so the fingerprint is identical before and after binding.
    """
    def parts():
        yield design.name
        yield design.ports
        for name in sorted(design.instances):
            inst = design.instances[name]
            yield (name, inst.cell_name, inst.connections, inst.location,
                   inst.dont_touch)
        for name in sorted(design.nets):
            net = design.nets[name]
            yield (name, net.ndr, net.extra_cap)

    return _digest_of(parts())


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

    Yields the pass's memo, a dict ``id(cell) -> (cell, digest)``; each
    entry holds its cell, so an id cannot be reused while the scope
    lives. A scope opened inside another on the same thread (the
    hierarchical top-level stub signoff) reuses the outer memo. The memo
    is dropped when the outermost scope exits, so a cell edited between
    passes is hashed afresh; each thread has its own scope, so
    concurrent passes never share one.
    """
    outer = getattr(_pass_scope, "memo", None)
    memo: Dict[int, Tuple[object, str]] = {} if outer is None else outer
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
    cells = []
    with fingerprint_pass() as memo:
        for name, cell in sorted(library.cells.items()):
            entry = memo.get(id(cell))
            if entry is None:
                entry = memo[id(cell)] = (cell, _cell_digest(cell))
            cells.append((name, entry[1]))
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
    alone decides validity (any netlist/constraint/corner change
    misses), while the design *name* lets an owner free every snapshot
    of a design it knows will not recur (:meth:`invalidate_design`).

    Recency is true LRU: both :meth:`store` and :meth:`lookup` refresh
    an entry's position, so the entry evicted at ``max_entries`` is the
    least recently *used*, not merely the oldest stored.

    ``verify=True`` arms integrity checking: each report's content
    digest is taken at store time and re-checked at lookup time; a
    mismatch (a cached object mutated behind the cache's back) drops the
    entry and reports a miss instead of serving corrupt timing.

    Thread safety: one lock guards the entries and the counters, so the
    daemon's workers and reader threads may share a cache. Content
    digests are taken outside it, so verified reads do not serialize.
    """

    def __init__(self, max_entries: int = 512, verify: bool = False):
        if max_entries < 1:
            raise TimingError("cache needs at least one entry")
        self.max_entries = max_entries
        self.verify = verify
        self._store: "OrderedDict[Tuple[str, str, str], _CacheEntry]" = \
            OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)

    def keys(self) -> List[Tuple[str, str, str]]:
        """Cached keys from least to most recently used."""
        with self._lock:
            return list(self._store)

    def lookup(self, design_name: str, design_fp: str,
               scenario_fp: str) -> Optional[TimingReport]:
        key = (design_name, design_fp, scenario_fp)
        with self._lock:
            entry = self._store.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
        if self.verify and entry.digest is not None \
                and entry.report.content_digest() != entry.digest:
            with self._lock:
                if self._store.get(key) is entry:
                    del self._store[key]
                self.stats.corruptions += 1
                self.stats.misses += 1
            return None
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
            self.stats.hits += 1
        return entry.report

    def store(self, design_name: str, design_fp: str, scenario_fp: str,
              report: TimingReport) -> None:
        key = (design_name, design_fp, scenario_fp)
        digest = report.content_digest() if self.verify else None
        with self._lock:
            self._store[key] = _CacheEntry(report=report, digest=digest)
            self._store.move_to_end(key)
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)

    def invalidate_design(self, design_name: str) -> int:
        """Drop every cached report of the named design (ECO hygiene)."""
        with self._lock:
            stale = [k for k in self._store if k[0] == design_name]
            for key in stale:
                del self._store[key]
            self.stats.invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            self.stats.invalidations += len(self._store)
            self._store.clear()


# ---------------------------------------------------------------------- #
# warm incremental timers (ECO-loop signoff)


class ScenarioTimerPool:
    """One :class:`~repro.sta.incremental.IncrementalTimer` per scenario,
    kept warm across ECO iterations.

    Re-signoff inside a closure loop used to re-bind a fresh STA per
    scenario per iteration — full graph construction, parasitic
    extraction and propagation every time. The pool instead keeps each
    scenario's timer alive: a footprint-preserving edit set re-times only
    its downstream cone, a topology-changing edit set (or an edit the
    timer cannot absorb) falls back to the timer's honest
    :meth:`~repro.sta.incremental.IncrementalTimer.full_update`.

    The pool is a *serial* engine by design: timers hold live, mutable
    STA state bound to the shared design, and their ECO retimes edit
    that design. Warm-starting and fan-out are different trades; the
    closure loop wants the former.

    ``engine`` times first builds and full retimes through
    :func:`~repro.sta.kernel.run_on_engine` (a vector compile refusal
    re-runs on the reference engine); cone-limited retimes always use
    the reference propagation.
    """

    def __init__(self, engine: str = "reference", fault_injector=None):
        from repro.sta.incremental import IncrementalTimer  # noqa: F401

        if engine not in ENGINES:
            raise TimingError(
                f"unknown engine {engine!r}; pick from {ENGINES}"
            )
        self.engine = engine
        #: Optional :class:`repro.testing.faults.FaultInjector` whose
        #: kernel-scoped faults fire at a first build's vector compile,
        #: so chaos plans exercise the reference fallback on warm pools.
        self.fault_injector = fault_injector
        self._timers: Dict[str, "IncrementalTimer"] = {}
        #: Retime calls served by a warm timer's cone-limited update.
        self.incremental_retimes = 0
        #: Retime calls that re-ran fully (topology change or fallback).
        self.full_retimes = 0
        #: Fresh STA constructions (first signoff of a scenario).
        self.builds = 0

    def get(self, name: str):
        """The warm timer for ``name``, or None before its first build."""
        return self._timers.get(name)

    def names(self) -> List[str]:
        return sorted(self._timers)

    def adopt(self, name: str, sta) -> "IncrementalTimer":
        """Register an already-run STA as scenario ``name``'s timer."""
        from repro.sta.incremental import IncrementalTimer

        timer = IncrementalTimer(sta, engine=self.engine)
        self._timers[name] = timer
        return timer

    def discard(self, name: str) -> None:
        self._timers.pop(name, None)

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
                    run_on_engine(sta, self.engine, name,
                                  self.fault_injector)
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
            self.full_retimes += 1
            return timer.full_update()
        self.incremental_retimes += 1
        return report


# ---------------------------------------------------------------------- #
# executor


def _run_scenario_job(job, attempt: int = 1):
    """Module-level worker so process pools can pickle it.

    Thread workers, and an abandoned (timed-out) attempt still running
    beside its retry, all analyze the one shared design. That is safe
    because analysis only binds it, and a rebind with a library that
    agrees on pin directions writes nothing (:meth:`Design.bind`).

    ``injector`` (a :class:`repro.testing.faults.FaultInjector`) fires
    planned faults at (scenario, attempt) coordinates before analysis —
    the hook the chaos suite drives crash/hang/pool-death recovery with.
    """
    scenario, design, stack, injector = job
    with obs_tracing.span("scenario", scenario=scenario.name,
                          attempt=attempt):
        if injector is not None:
            injector.fire(scenario.name, attempt)
        with obs_tracing.span("sta_run", scenario=scenario.name):
            return scenario.run(design, stack)


def _run_mode_job(job, attempt: int = 1):
    """Time one mode's scenarios as corner lanes of one compiled kernel.

    Module-level so process pools can pickle it. Fires every lane's
    planned faults at the mode's attempt number first. Returns the
    lanes' reports in lane order, or *returns* whatever the mode raised
    (a lane's fault, a compile refusal, a kernel error) as the hand-off
    text "attempt N: ErrorClass: message": its scenarios rejoin the
    per-scenario fan-out, where a lane's fault fires once more in the
    scenario's own task. The supervisor fails a mode only for a timeout
    or a dead pool.
    """
    scenarios, design, stack, injector = job
    try:
        if injector is not None:
            for scenario in scenarios:
                injector.fire(scenario.name, attempt)
                injector.fire_kernel(scenario.name, attempt)
        kernel = compile_kernel(
            design, scenarios[0].constraints,
            [CornerSpec.from_scenario(s, stack) for s in scenarios],
            stack=stack,
        )
        kernel.run()
        reports = []
        for ci, scenario in enumerate(scenarios):
            with obs_tracing.span("scenario", scenario=scenario.name,
                                  source="vector", attempt=attempt):
                report = kernel.report(ci)
                report.scenario = scenario.name
                reports.append(report)
        return reports
    except Exception as exc:  # noqa: BLE001 - handed off, not lost
        # A ReproError's message drops its [context] suffix, as the
        # supervisor's error-chain lines do.
        return (f"attempt {attempt}: {type(exc).__name__}: "
                f"{getattr(exc, 'message', exc)}")


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
        engine: "reference" walks the object graph per scenario (the
            oracle); "vector" first times each mode (the scenarios that
            share a constraint set) as one supervised task that batches
            them through one compiled
            :class:`~repro.sta.kernel.CompiledKernel`. A mode gets one
            attempt, bounded by ``policy.timeout_s``; the scenarios of a
            mode that does not come home (compile refused, crashed,
            hung, lost with its pool) rejoin the per-scenario reference
            fan-out, where retry and quarantine work per scenario as on
            the reference engine.
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
        self.engine = engine
        #: Scenario STA evaluations actually performed (cache misses);
        #: the call counter the regression tests assert against.
        self.evaluations = 0
        #: Individual attempts, including failed ones (>= evaluations).
        self.attempts = 0

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
        t0 = time.perf_counter()
        stats_before = (copy.copy(self.cache.stats)
                        if self.cache is not None else None)
        reports: Dict[str, TimingReport] = {}
        records: Dict[str, ScenarioRecord] = {}
        hits: List[str] = []
        journal_hits: List[str] = []
        todo = []
        with obs_tracing.span("cache_triage",
                              scenarios=len(self.scenarios)) as triage:
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
                        continue
                todo.append((scenario, fp))
            if hits:
                triage.set(cached=",".join(hits))
            if journal_hits:
                triage.set(journaled=",".join(journal_hits))

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

        executor = self.executor
        fallbacks: List[str] = []
        ref_todo = list(todo)
        if self.engine == "vector" and todo:
            modes: Dict[str, list] = {}
            for scenario, fp in todo:
                modes.setdefault(
                    constraints_fingerprint(scenario.constraints), []
                ).append((scenario, fp))
            groups = list(modes.values())

            mode_supervisor = SupervisedExecutor(
                jobs=self.jobs,
                executor=self.executor,
                policy=RetryPolicy(retries=0, timeout_s=self.policy.timeout_s),
                on_event=events.append,
            )
            ref_todo = []
            with obs_tracing.span("vector_signoff", modes=len(groups),
                                  scenarios=len(todo)) as vector_span:
                executions = mode_supervisor.run([
                    SupervisedTask(
                        name=",".join(s.name for s, _ in group),
                        fn=_run_mode_job,
                        payload=([s for s, _ in group], design, self.stack,
                                 self.fault_injector),
                    )
                    for group in groups
                ])
                for group, execution in zip(groups, executions):
                    self.attempts += len(group) * execution.attempts
                    result = execution.result
                    if execution.ok and not isinstance(result, str):
                        for (scenario, fp), report in zip(group, result):
                            absorb(scenario, fp, report, ScenarioStatus.OK)
                        continue
                    error = (result if execution.ok
                             else execution.error_chain[-1])
                    obs_metrics.inc("kernel.fallbacks")
                    events.append(
                        "vector engine fell back to reference for "
                        f"{len(group)} scenario(s): {error}"
                    )
                    ref_todo.extend(group)
                if ref_todo:
                    vector_span.set(kernel_fallbacks=",".join(
                        scenario.name for scenario, _ in ref_todo))
            # A pool that died under a mode stays downgraded.
            executor = mode_supervisor.executor_used
            fallbacks = mode_supervisor.fallbacks

        supervisor = SupervisedExecutor(
            jobs=self.jobs,
            executor=executor,
            policy=self.policy,
            on_event=events.append,
        )
        with obs_tracing.span("scenario_fanout", count=len(ref_todo)):
            executions = supervisor.run([
                SupervisedTask(
                    name=scenario.name,
                    fn=_run_scenario_job,
                    payload=(scenario, design, self.stack,
                             self.fault_injector),
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
                    error=execution.error_text,
                    error_chain=list(execution.error_chain),
                )
                continue
            status = (ScenarioStatus.OK
                      if execution.status is TaskStatus.OK
                      else ScenarioStatus.RETRIED)
            absorb(scenario, fp, execution.result, status,
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
            fallbacks=fallbacks + supervisor.fallbacks,
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
