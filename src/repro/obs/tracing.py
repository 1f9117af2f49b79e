"""Hierarchical tracing: spans, the active-tracer protocol, ingestion.

The closure loop (the paper's Fig 1) is an iterative, multi-engine
pipeline; knowing *where* its wall-clock goes — which corner, which fix
stage, which cone re-time — is the observability commercial STA tools
surface via run reports. This module provides the substrate:

- **Spans** — :class:`Span` is one timed phase with a name, key/value
  attributes, monotonic start/duration, and a parent link, so a run
  becomes a tree: ``signoff -> scenario -> ...`` or
  ``closure -> iteration -> stage -> retime -> retime_cone``.
- **Deterministic IDs** — span ids are sequential integers assigned in
  creation order under a lock. Instrumented code paths allocate spans
  from a single thread (workers use private tracers, see below), so two
  identical runs produce identical span trees — tests can assert on
  structure, not just presence.
- **Thread/process-safe collection** — each thread has its own span
  *stack* (parent linkage never crosses threads by accident) while the
  collected list is shared under a lock. Supervised workers (thread
  *or* process pools) record into a private :class:`Tracer`:
  :meth:`repro.runtime.supervisor.SupervisedExecutor.run` installs it
  around each attempt, carries its spans home with the result and
  :meth:`Tracer.ingest`-s them into the caller's tracer after the batch
  — re-numbered and re-parented deterministically, surviving pickling
  across the process boundary. Worker code just opens spans.
- **Cheap disabled path** — module-level :func:`span` consults the
  active tracer (thread-local override, then process default); when none
  is installed it returns a shared no-op span. Disabled cost is one
  function call, one thread-local read and one global read — small
  enough that instrumentation stays compiled in everywhere
  (the benchmark suite enforces <2% overhead on the closure workload).

Timestamps are ``time.perf_counter()`` values. On the platforms this
repo targets that clock is CLOCK_MONOTONIC, shared by parent and child
processes, so worker spans interleave correctly with parent spans in an
exported trace without rebasing.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "NullSpan",
    "NULL_SPAN",
    "span",
    "active_tracer",
    "set_default_tracer",
    "use",
]


@dataclass
class Span:
    """One timed phase of a run.

    ``start_s`` is a raw ``perf_counter`` reading; ``duration_s`` is
    filled when the span closes (0.0 while open). ``attrs`` holds
    whatever the instrumented site attached (scenario name, cone size,
    engine list, ...). Plain dataclass fields only, so spans pickle
    across process-pool boundaries unchanged.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start_s: float
    duration_s: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    pid: int = 0
    tid: int = 0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes mid-span (e.g. a cone size known at exit)."""
        self.attrs.update(attrs)
        return self

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


class NullSpan:
    """The shared do-nothing span returned when tracing is disabled.

    Mimics just enough of :class:`Span` (``set``, ``duration_s``,
    ``attrs``) that instrumented code never branches on enablement.
    """

    __slots__ = ()

    duration_s = 0.0
    span_id = 0
    parent_id = None
    name = ""

    @property
    def attrs(self) -> Dict[str, Any]:
        return {}

    def set(self, **attrs: Any) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_SPAN = NullSpan()


class _SpanContext:
    """Context manager for one live span of one tracer."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span_obj: Span):
        self._tracer = tracer
        self.span = span_obj

    def __enter__(self) -> Span:
        self._tracer._push(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self.span)
        return False


class Tracer:
    """Collects a tree of spans (see module docstring).

    Args:
        profiler: optional :class:`repro.obs.profile.SpanProfiler`;
            spans whose names it registered get a cProfile capture.
    """

    def __init__(self, profiler=None):
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._next_id = 1
        self._local = threading.local()
        self.profiler = profiler

    # ------------------------------------------------------------------ #
    # span lifecycle

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a child span of this thread's current span."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        return _SpanContext(self, Span(
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            start_s=time.perf_counter(),
            attrs=dict(attrs),
            pid=os.getpid(),
            tid=threading.get_ident(),
        ))

    def _push(self, span_obj: Span) -> None:
        span_obj.start_s = time.perf_counter()
        self._stack().append(span_obj)
        if self.profiler is not None:
            self.profiler.span_started(span_obj)

    def _pop(self, span_obj: Span) -> None:
        if self.profiler is not None:
            self.profiler.span_finished(span_obj)
        span_obj.duration_s = time.perf_counter() - span_obj.start_s
        stack = self._stack()
        if stack and stack[-1] is span_obj:
            stack.pop()
        else:  # tolerate out-of-order exits rather than corrupt the stack
            try:
                stack.remove(span_obj)
            except ValueError:
                pass
        with self._lock:
            self._spans.append(span_obj)

    # ------------------------------------------------------------------ #
    # inspection

    def spans(self) -> List[Span]:
        """All closed spans, ordered by span id (creation order)."""
        with self._lock:
            return sorted(self._spans, key=lambda s: s.span_id)

    def current_span_id(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # ------------------------------------------------------------------ #
    # worker-span ingestion

    def ingest(self, foreign: Iterable[Span],
               parent_id: Optional[int] = None) -> List[Span]:
        """Adopt spans recorded by another (worker) tracer.

        Foreign spans are re-numbered into this tracer's id space in
        their original creation order and foreign *roots* are re-parented
        under ``parent_id`` (child links within the foreign tree are
        preserved). Ingestion happens from a single thread in
        deterministic (submission) order, so the adopted ids are as
        reproducible as locally created ones. Returns the adopted spans.
        """
        ordered = sorted(foreign, key=lambda s: s.span_id)
        with self._lock:
            id_map = {}
            for span_obj in ordered:
                id_map[span_obj.span_id] = self._next_id
                self._next_id += 1
            adopted = []
            for span_obj in ordered:
                adopted.append(Span(
                    name=span_obj.name,
                    span_id=id_map[span_obj.span_id],
                    parent_id=(id_map.get(span_obj.parent_id, parent_id)
                               if span_obj.parent_id is not None
                               else parent_id),
                    start_s=span_obj.start_s,
                    duration_s=span_obj.duration_s,
                    attrs=dict(span_obj.attrs),
                    pid=span_obj.pid,
                    tid=span_obj.tid,
                ))
            self._spans.extend(adopted)
        return adopted


# ---------------------------------------------------------------------- #
# the active-tracer protocol

_default_tracer: Optional[Tracer] = None
_tls = threading.local()
#: Sentinel distinguishing "no thread-local override" from "overridden
#: with None" — and cheaper than catching AttributeError on the
#: disabled fast path (a raised exception costs ~1 µs; a defaulted
#: getattr ~100 ns, which is what lets the hooks stay compiled in).
_UNSET = object()


def active_tracer() -> Optional[Tracer]:
    """The tracer instrumentation records into, or None when disabled.

    The thread-local override (installed by :func:`use`) wins over the
    process-wide default (installed by :func:`set_default_tracer`), so
    worker threads recording into private tracers never interleave with
    the main thread's tree.
    """
    tracer = getattr(_tls, "tracer", _UNSET)
    return _default_tracer if tracer is _UNSET else tracer


def set_default_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install the process-wide default tracer; returns the previous one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


class use:
    """Context manager pinning ``tracer`` as this thread's active tracer.

    ``use(None)`` masks any process default — tracing is disabled inside
    the block for this thread.
    """

    def __init__(self, tracer: Optional[Tracer]):
        self._tracer = tracer
        self._had_override = False
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Optional[Tracer]:
        self._had_override = hasattr(_tls, "tracer")
        self._previous = getattr(_tls, "tracer", None)
        _tls.tracer = self._tracer
        return self._tracer

    def __exit__(self, *exc_info) -> bool:
        if self._had_override:
            _tls.tracer = self._previous
        else:
            del _tls.tracer
        return False


def span(name: str, **attrs: Any):
    """Open a span on the active tracer; a shared no-op when disabled.

    This is the one call instrumented code makes. The disabled path is
    two attribute reads and a return — cheap enough to leave compiled in
    on every hot path (enforced by the obs overhead benchmark).
    """
    tracer = getattr(_tls, "tracer", _UNSET)
    if tracer is _UNSET:
        tracer = _default_tracer
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)
