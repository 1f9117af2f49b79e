"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The registry answers the "how much" questions tracing's span tree does
not: cache hit/miss totals, retry and quarantine counts, cone-size
distributions, per-stage wall accumulations. Everything is
process-local by design — worker *spans* travel back with results (see
:mod:`repro.obs.tracing`), but worker-side metric increments do not;
the instrumented sites that matter (cache triage, supervision, the
closure loop) all run in the coordinating process.

Enablement mirrors tracing: a process default registry plus a
thread-local override, consulted through the module-level helpers
:func:`inc`, :func:`observe` and :func:`set_gauge`. Disabled cost is one
function call and two reads — cheap enough to leave the calls compiled
in on hot paths (the obs overhead benchmark enforces <2% on the closure
workload).

Mutation methods rely on the GIL for atomicity (``int`` add, ``list``
index add); registration uses a lock. That is the same contract the
scheduler's :class:`~repro.sta.scheduler.CacheStats` already lives by.
"""

from __future__ import annotations

import bisect
import json
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import TimingError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "active_registry",
    "set_default_registry",
    "use",
    "inc",
    "observe",
    "set_gauge",
]

#: Default histogram bucket upper bounds — a coarse log scale that fits
#: the quantities this repo observes (cone sizes in pins, wall seconds
#: in milli-units, retry counts). Callers with a real distribution in
#: mind pass their own.
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
                   1000.0, 2000.0, 5000.0, 10000.0)


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TimingError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


@dataclass
class Gauge:
    """Last-write-wins instantaneous value."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram (bucket edges frozen at creation).

    ``buckets`` are inclusive upper bounds; an implicit +inf bucket
    catches overflow. Tracks count and sum so means are recoverable.
    """

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not buckets:
            raise TimingError("histogram needs at least one bucket bound")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise TimingError(
                f"histogram {name!r} bucket bounds must be strictly "
                f"increasing, got {bounds}"
            )
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # final slot = +inf
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.total,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    A name is permanently bound to its first-registered kind;
    re-registering it as a different kind (or a histogram with different
    buckets) raises :class:`~repro.errors.TimingError` — silent aliasing
    would corrupt whichever caller loses the race.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, kind, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
            elif not isinstance(metric, kind):
                raise TimingError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        hist = self._get_or_create(
            name, Histogram, lambda: Histogram(name, buckets)
        )
        if hist.bounds != tuple(float(b) for b in buckets):
            raise TimingError(
                f"histogram {name!r} already registered with buckets "
                f"{hist.bounds}"
            )
        return hist

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Point-in-time {name: state} map, sorted by name (JSON-plain)."""
        with self._lock:
            return {
                name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)
            }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        """Flat, deterministic text table of every metric."""
        lines = [f"{'metric':<44} {'type':<10} {'value':>14}"]
        for name, state in self.snapshot().items():
            if state["type"] == "histogram":
                value = (f"n={state['count']} "
                         f"mean={state['sum'] / state['count']:.3g}"
                         if state["count"] else "n=0")
            else:
                value = f"{state['value']:g}"
            lines.append(f"{name:<44} {state['type']:<10} {value:>14}")
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# the active-registry protocol (mirrors repro.obs.tracing)

_default_registry: Optional[MetricsRegistry] = None
_tls = threading.local()
#: See :data:`repro.obs.tracing._UNSET` — sentinel for "no thread-local
#: override", keeping the disabled fast path exception-free.
_UNSET = object()


def active_registry() -> Optional[MetricsRegistry]:
    """The registry helpers record into, or None when disabled."""
    registry = getattr(_tls, "registry", _UNSET)
    return _default_registry if registry is _UNSET else registry


def set_default_registry(
    registry: Optional[MetricsRegistry],
) -> Optional[MetricsRegistry]:
    """Install the process default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


class use:
    """Pin ``registry`` as this thread's active registry (None disables)."""

    def __init__(self, registry: Optional[MetricsRegistry]):
        self._registry = registry
        self._had_override = False
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> Optional[MetricsRegistry]:
        self._had_override = hasattr(_tls, "registry")
        self._previous = getattr(_tls, "registry", None)
        _tls.registry = self._registry
        return self._registry

    def __exit__(self, *exc_info) -> bool:
        if self._had_override:
            _tls.registry = self._previous
        else:
            del _tls.registry
        return False


def inc(name: str, amount: float = 1.0) -> None:
    """Increment counter ``name`` on the active registry (no-op when off)."""
    registry = active_registry()
    if registry is not None:
        registry.counter(name).inc(amount)


def observe(name: str, value: float,
            buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
    """Observe ``value`` into histogram ``name`` (no-op when disabled)."""
    registry = active_registry()
    if registry is not None:
        registry.histogram(name, buckets).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` (no-op when disabled)."""
    registry = active_registry()
    if registry is not None:
        registry.gauge(name).set(value)
