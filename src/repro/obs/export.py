"""Trace export: Chrome-trace JSON, JSON-lines events, and summaries.

Two export shapes, one source of truth (a list of closed
:class:`~repro.obs.tracing.Span` objects):

- **Chrome trace** (:func:`chrome_trace` / :func:`write_chrome_trace`) —
  the ``chrome://tracing`` / Perfetto "JSON object format": a dict with
  a ``traceEvents`` list of complete ("ph": "X") events, timestamps in
  microseconds rebased to the earliest span. Span ids and parent links
  ride along in each event's ``args`` so the hierarchy survives even
  across process lanes (Perfetto nests same-track events by time
  containment; the args keep the exact tree).
- **JSON lines** (:func:`write_events_jsonl`) — one flat JSON object
  per span per line, trivially greppable/stream-parseable.

:func:`summarize` folds either file back into a per-phase wall-clock
breakdown (the ``repro trace summarize`` subcommand): for every span
name, the count, total wall, *self* wall (total minus child spans) and
share of the run — the table that answers "where did the time go".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import ReproError
from repro.obs.tracing import Span

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_events_jsonl",
    "load_events",
    "PhaseStat",
    "TraceSummary",
    "summarize",
    "summarize_file",
]


def _span_to_event(span: Span, t0_s: float) -> Dict[str, Any]:
    args = {"span_id": span.span_id}
    if span.parent_id is not None:
        args["parent_id"] = span.parent_id
    for key, value in span.attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            args[key] = value
        else:
            args[key] = repr(value)
    return {
        "name": span.name,
        "cat": "repro",
        "ph": "X",
        "ts": (span.start_s - t0_s) * 1e6,
        "dur": span.duration_s * 1e6,
        "pid": span.pid,
        "tid": span.tid,
        "args": args,
    }


def chrome_trace(spans: Sequence[Span],
                 metadata: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Spans as a Chrome-trace/Perfetto JSON object (dict, not text)."""
    t0_s = min((s.start_s for s in spans), default=0.0)
    trace: Dict[str, Any] = {
        "traceEvents": [
            _span_to_event(s, t0_s)
            for s in sorted(spans, key=lambda s: s.span_id)
        ],
        "displayTimeUnit": "ms",
    }
    if metadata:
        trace["otherData"] = dict(metadata)
    return trace


def write_chrome_trace(path, spans: Sequence[Span],
                       metadata: Optional[Dict[str, Any]] = None) -> None:
    """Write a Chrome-trace file loadable in chrome://tracing / Perfetto."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans, metadata), handle)
        handle.write("\n")


def write_events_jsonl(path, spans: Sequence[Span]) -> None:
    """Write one flat JSON event per line (same fields as Chrome args)."""
    t0_s = min((s.start_s for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as handle:
        for span in sorted(spans, key=lambda s: s.span_id):
            handle.write(json.dumps(_span_to_event(span, t0_s)) + "\n")


# ---------------------------------------------------------------------- #
# loading + summarizing


def load_events(path) -> List[Dict[str, Any]]:
    """Events from a Chrome-trace JSON file or a JSONL event file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ReproError(f"cannot read trace file: {exc}") from exc
    stripped = text.strip()
    if not stripped:
        raise ReproError(f"trace file {path} is empty")
    try:
        try:
            payload = json.loads(stripped)
        except ValueError:
            # Not one JSON document — treat as JSONL, one event per line.
            events = [json.loads(line) for line in stripped.splitlines()
                      if line.strip()]
        else:
            if isinstance(payload, dict) and "traceEvents" in payload:
                events = payload["traceEvents"]
            elif isinstance(payload, dict) and "name" in payload:
                events = [payload]  # one-line JSONL file
            elif isinstance(payload, list):  # bare event array
                events = payload
            else:
                raise ValueError("no traceEvents key")
    except ValueError as exc:
        raise ReproError(
            f"trace file {path} is neither Chrome-trace JSON nor "
            f"JSONL events: {exc}"
        ) from exc
    return [e for e in events if e.get("ph", "X") == "X"]


@dataclass
class PhaseStat:
    """Aggregate wall-clock for all spans sharing one name."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


@dataclass
class TraceSummary:
    """Per-phase breakdown of one trace."""

    phases: List[PhaseStat]
    span_count: int
    wall_s: float  # earliest start to latest end across all spans
    #: Scenarios that degraded from the vector engine to the reference
    #: path (``kernel_fallback`` spans, and the ``kernel_fallbacks``
    #: attribute a ``vector_signoff`` span carries), in event order
    #: with duplicates collapsed.
    degraded_scenarios: List[str] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.degraded_scenarios is None:
            self.degraded_scenarios = []

    def phase(self, name: str) -> Optional[PhaseStat]:
        for stat in self.phases:
            if stat.name == name:
                return stat
        return None

    def render(self) -> str:
        lines = [
            f"{'phase':<24} {'count':>6} {'total (s)':>10} "
            f"{'self (s)':>10} {'mean (ms)':>10} {'share':>7}"
        ]
        total_self = sum(stat.self_s for stat in self.phases)
        for stat in self.phases:
            share = stat.self_s / total_self if total_self else 0.0
            lines.append(
                f"{stat.name:<24} {stat.count:>6} {stat.total_s:>10.3f} "
                f"{stat.self_s:>10.3f} {stat.mean_s * 1e3:>10.2f} "
                f"{share:>6.1%}"
            )
        lines.append(
            f"{len(self.phases)} phase(s), {self.span_count} span(s), "
            f"{self.wall_s:.3f} s wall"
        )
        if self.degraded_scenarios:
            lines.append(
                "kernel fallbacks (vector -> reference): "
                + ", ".join(self.degraded_scenarios)
            )
        return "\n".join(lines)


def summarize(events: Iterable[Dict[str, Any]]) -> TraceSummary:
    """Fold events into a per-phase breakdown, largest self-time first.

    Self time is a span's duration minus its direct children's durations
    (linked via ``args.span_id`` / ``args.parent_id``); phases without
    id links degrade gracefully to self == total.
    """
    events = list(events)
    child_dur_us: Dict[Any, float] = {}
    for event in events:
        parent = (event.get("args") or {}).get("parent_id")
        if parent is not None:
            child_dur_us[parent] = (
                child_dur_us.get(parent, 0.0) + float(event.get("dur", 0.0))
            )
    stats: Dict[str, PhaseStat] = {}
    degraded: List[str] = []
    t_min, t_max = float("inf"), float("-inf")
    for event in events:
        name = event.get("name", "?")
        dur_us = float(event.get("dur", 0.0))
        ts_us = float(event.get("ts", 0.0))
        args = event.get("args") or {}
        span_id = args.get("span_id")
        stat = stats.setdefault(name, PhaseStat(name=name))
        stat.count += 1
        stat.total_s += dur_us / 1e6
        stat.self_s += max(0.0, dur_us - child_dur_us.get(span_id, 0.0)) / 1e6
        t_min = min(t_min, ts_us)
        t_max = max(t_max, ts_us + dur_us)
        if name == "kernel_fallback":
            fallen = [args.get("scenario", "?")]
        else:
            fallen = [n for n in args.get("kernel_fallbacks", "").split(",")
                      if n]
        for scenario in fallen:
            if scenario not in degraded:
                degraded.append(scenario)
    ordered = sorted(stats.values(), key=lambda s: (-s.self_s, s.name))
    return TraceSummary(
        phases=ordered,
        span_count=len(events),
        wall_s=(t_max - t_min) / 1e6 if events else 0.0,
        degraded_scenarios=degraded,
    )


def summarize_file(path) -> TraceSummary:
    """Load a trace file (Chrome JSON or JSONL) and summarize it."""
    return summarize(load_events(path))
