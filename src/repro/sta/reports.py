"""Timing reports: endpoint results, paths, histograms and text tables."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.netlist.design import PinRef
from repro.sta.algebra import sigma_of
from repro.sta.graph import TimingCheck


@dataclass
class PathPoint:
    """One pin along a reported timing path."""

    ref: PinRef
    direction: str
    arrival: float
    slew: float
    increment: float
    kind: str  # "start", "cell", "net"

    def __str__(self) -> str:
        return (
            f"{str(self.ref):<28} {self.direction:<4} "
            f"+{self.increment:7.2f} {self.arrival:9.2f} ps"
        )


@dataclass
class TimingPath:
    """A reconstructed worst path to an endpoint."""

    points: List[PathPoint]
    mode: str  # "setup" | "hold"

    @property
    def startpoint(self) -> PinRef:
        return self.points[0].ref

    @property
    def endpoint(self) -> PinRef:
        return self.points[-1].ref

    @property
    def arrival(self) -> float:
        return self.points[-1].arrival

    @property
    def stage_count(self) -> int:
        return sum(1 for p in self.points if p.kind == "cell")

    def cell_delay(self) -> float:
        return sum(p.increment for p in self.points if p.kind == "cell")

    def net_delay(self) -> float:
        return sum(p.increment for p in self.points if p.kind == "net")

    def gate_delay_fraction(self) -> float:
        """Fraction of path delay spent in cells — the gate-wire-balance
        statistic of the paper's Section 2.3."""
        total = self.cell_delay() + self.net_delay()
        if total <= 0:
            return 1.0
        return self.cell_delay() / total

    def render(self) -> str:
        lines = [f"Path ({self.mode}) {self.startpoint} -> {self.endpoint}"]
        lines += [f"  {p}" for p in self.points]
        lines.append(f"  arrival: {self.arrival:.2f} ps, "
                     f"{self.stage_count} stages, "
                     f"gate fraction {self.gate_delay_fraction():.2f}")
        return "\n".join(lines)


@dataclass
class EndpointResult:
    """Slack at one timing endpoint."""

    endpoint: PinRef
    kind: str  # "setup" | "hold" | "output"
    slack: float
    arrival: float
    required: float
    data_direction: Optional[str] = None
    check: Optional[TimingCheck] = None
    startpoint: Optional[PinRef] = None  # worst path's origin
    #: True when the worst path launches from a flop (its origin is the
    #: clock network); False when it launches from a data input port;
    #: None when unknown.
    launched_from_clock: Optional[bool] = None

    @property
    def violated(self) -> bool:
        return self.slack < 0.0

    @property
    def slack_sigma(self) -> float:
        """Slack standard deviation; 0 for scalar analyses."""
        return sigma_of(self.slack)

    @property
    def category(self) -> str:
        """Path category: reg2reg / in2reg / reg2out / in2out / unknown."""
        if self.launched_from_clock is None:
            return "unknown"
        if self.kind == "output":
            return "reg2out" if self.launched_from_clock else "in2out"
        return "reg2reg" if self.launched_from_clock else "in2reg"


@dataclass
class SlewViolation:
    """A max-transition violation at a pin."""

    ref: PinRef
    slew: float
    limit: float

    @property
    def excess(self) -> float:
        return self.slew - self.limit


@dataclass
class TimingReport:
    """The result of one STA run."""

    setup: List[EndpointResult] = field(default_factory=list)
    hold: List[EndpointResult] = field(default_factory=list)
    slew_violations: List[SlewViolation] = field(default_factory=list)
    scenario: str = ""

    def __post_init__(self):
        # Algebra values order by mean, so one sort serves every domain.
        self.setup.sort(key=lambda e: e.slack)
        self.hold.sort(key=lambda e: e.slack)

    def endpoints(self, mode: str) -> List[EndpointResult]:
        if mode == "setup":
            return self.setup
        if mode == "hold":
            return self.hold
        raise ValueError(f"bad mode {mode!r}")

    def wns(self, mode: str = "setup") -> float:
        eps = self.endpoints(mode)
        return min((e.slack for e in eps), default=math.inf)

    def tns(self, mode: str = "setup") -> float:
        return sum(min(e.slack, 0.0) for e in self.endpoints(mode))

    def violations(self, mode: str = "setup") -> List[EndpointResult]:
        return [e for e in self.endpoints(mode) if e.violated]

    def violation_count(self, mode: str = "setup") -> int:
        return len(self.violations(mode))

    def worst(self, mode: str = "setup") -> Optional[EndpointResult]:
        eps = self.endpoints(mode)
        return eps[0] if eps else None

    def slack_of(self, endpoint: PinRef, mode: str = "setup") -> float:
        for e in self.endpoints(mode):
            if e.endpoint == endpoint:
                return e.slack
        raise KeyError(f"no {mode} endpoint {endpoint}")

    # ------------------------------------------------------------------ #
    # rendering

    def summary(self) -> str:
        parts = [
            f"scenario: {self.scenario or '(default)'}",
            f"setup: WNS {self.wns('setup'):9.2f} ps, "
            f"TNS {self.tns('setup'):10.2f} ps, "
            f"{self.violation_count('setup')} violating / {len(self.setup)}",
            f"hold:  WNS {self.wns('hold'):9.2f} ps, "
            f"TNS {self.tns('hold'):10.2f} ps, "
            f"{self.violation_count('hold')} violating / {len(self.hold)}",
            f"max_transition violations: {len(self.slew_violations)}",
        ]
        return "\n".join(parts)

    def slack_histogram(self, mode: str = "setup", bins: int = 8,
                        width: int = 40) -> str:
        slacks = [e.slack for e in self.endpoints(mode)]
        if not slacks:
            return "(no endpoints)"
        lo, hi = min(slacks), max(slacks)
        if hi <= lo:
            hi = lo + 1.0
        step = (hi - lo) / bins
        counts = [0] * bins
        for s in slacks:
            idx = min(int((s - lo) / step), bins - 1)
            counts[idx] += 1
        peak = max(counts)
        lines = [f"slack histogram ({mode}, ps)"]
        for i, count in enumerate(counts):
            label = f"[{lo + i * step:8.1f}, {lo + (i + 1) * step:8.1f})"
            bar = "#" * (width * count // peak if peak else 0)
            lines.append(f"  {label} {count:5d} {bar}")
        return "\n".join(lines)

    def render_full(self) -> str:
        """A complete, deterministic text dump of the report.

        Every endpoint of every mode with fixed formatting and a stable
        ordering (slack, then endpoint name — endpoint names are unique,
        so ties cannot reorder). Two runs of the same analysis produce
        byte-identical dumps regardless of scheduling, which is what the
        parallel-signoff regression tests compare.
        """
        lines = [f"report {self.scenario or '(default)'}"]
        for mode in ("setup", "hold"):
            for e in sorted(self.endpoints(mode),
                            key=lambda r: (r.slack, str(r.endpoint))):
                lines.append(
                    f"  {mode:<6} {str(e.endpoint):<30} "
                    f"slack {e.slack:12.4f} arrival {e.arrival:12.4f} "
                    f"required {e.required:12.4f} {e.category}"
                )
        for v in sorted(self.slew_violations,
                        key=lambda s: (s.excess, str(s.ref))):
            lines.append(
                f"  slew   {str(v.ref):<30} "
                f"slew {v.slew:12.4f} limit {v.limit:12.4f}"
            )
        return "\n".join(lines)

    def content_digest(self) -> str:
        """SHA-256 of the full rendered report.

        Two reports with identical timing content share a digest; any
        mutation of any endpoint changes it. The scenario result cache
        uses this to detect in-place corruption of cached reports
        (``ScenarioResultCache(verify=True)``): the digest is taken at
        store time and re-checked at lookup time.
        """
        return hashlib.sha256(self.render_full().encode()).hexdigest()

    def violation_breakdown(self, mode: str = "setup") -> Dict[str, int]:
        """Fig 1's 'breakdown of timing failures': violating endpoints
        classified by path category (reg2reg / in2reg / reg2out / in2out),
        plus ``slew`` violations as their own bucket."""
        breakdown: Dict[str, int] = {}
        for e in self.violations(mode):
            key = e.category
            breakdown[key] = breakdown.get(key, 0) + 1
        if mode == "setup" and self.slew_violations:
            breakdown["slew"] = len(self.slew_violations)
        return breakdown

    def table(self, mode: str = "setup", limit: int = 10) -> str:
        lines = [f"{'endpoint':<30} {'slack':>9} {'arrival':>9} {'required':>9}"]
        for e in self.endpoints(mode)[:limit]:
            lines.append(
                f"{str(e.endpoint):<30} {e.slack:9.2f} {e.arrival:9.2f} "
                f"{e.required:9.2f}"
            )
        return "\n".join(lines)
