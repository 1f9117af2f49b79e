"""Multi-corner multi-mode (MCMM) scenario management.

A *scenario* is one (mode constraints, library condition, BEOL corner,
temperature, derates) combination. The :class:`ScenarioSet` runs STA for
every scenario, merges per-endpoint worst slacks, and implements the
dominance-based scenario pruning that a central engineering team uses to
tame the paper's "corner super-explosion" — with the safety property that
pruning never removes a scenario unless another scenario is at least as
pessimistic at *every* endpoint (within a guard margin).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.beol.corners import conventional_corners
from repro.beol.stack import BeolStack, default_stack
from repro.errors import TimingError
from repro.liberty.library import Library
from repro.netlist.design import Design, PinRef
from repro.sta.analysis import STA
from repro.sta.constraints import Constraints
from repro.sta.propagation import Derates
from repro.sta.reports import TimingReport


@dataclass
class Scenario:
    """One MCMM analysis view."""

    name: str
    library: Library
    constraints: Constraints
    beol_corner_name: str = "typ"
    temp_c: Optional[float] = None
    derates: Derates = field(default_factory=Derates)

    def run(self, design: Design, stack: BeolStack) -> TimingReport:
        corner = conventional_corners(stack)[self.beol_corner_name]
        sta = STA(
            design,
            self.library,
            self.constraints,
            stack=stack,
            beol_corner=corner,
            temp_c=self.temp_c,
            derates=self.derates,
        )
        report = sta.run()
        report.scenario = self.name
        return report


@dataclass
class McmmResult:
    """Per-scenario reports plus merged worst-slack views."""

    reports: Dict[str, TimingReport]

    def merged_wns(self, mode: str = "setup") -> float:
        return min(r.wns(mode) for r in self.reports.values())

    def merged_tns(self, mode: str = "setup") -> float:
        return min(r.tns(mode) for r in self.reports.values())

    def worst_scenario(self, mode: str = "setup") -> str:
        return min(self.reports, key=lambda n: self.reports[n].wns(mode))

    def endpoint_matrix(self, mode: str = "setup") -> Dict[PinRef, Dict[str, float]]:
        """endpoint -> {scenario: slack} (endpoints common to all runs)."""
        matrix: Dict[PinRef, Dict[str, float]] = {}
        for name, report in self.reports.items():
            for e in report.endpoints(mode):
                matrix.setdefault(e.endpoint, {})[name] = e.slack
        return {
            ep: row for ep, row in matrix.items()
            if len(row) == len(self.reports)
        }


class ScenarioSet:
    """A collection of scenarios with run and prune operations."""

    def __init__(self, scenarios: List[Scenario],
                 stack: Optional[BeolStack] = None):
        if not scenarios:
            raise TimingError("a scenario set needs at least one scenario")
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise TimingError("scenario names must be unique")
        self.scenarios = list(scenarios)
        self.stack = stack or default_stack()

    def run(self, design: Design, jobs: int = 1, executor: str = "thread",
            cache=None) -> McmmResult:
        """Run every scenario; ``jobs > 1`` fans out over the signoff
        scheduler's worker pool, ``cache`` (a
        :class:`repro.sta.scheduler.ScenarioResultCache`) reuses reports
        whose (netlist, constraints, corner) content is unchanged."""
        if jobs <= 1 and cache is None:
            return McmmResult(
                reports={
                    s.name: s.run(design, self.stack) for s in self.scenarios
                }
            )
        from repro.sta.scheduler import SignoffScheduler

        scheduler = SignoffScheduler(
            self.scenarios, stack=self.stack, jobs=jobs, executor=executor,
            cache=cache,
        )
        return scheduler.run(design)

    def prune(self, design: Design, guard_margin: float = 5.0,
              mode: str = "setup") -> Tuple["ScenarioSet", List[str]]:
        """Drop scenarios dominated at every endpoint by another scenario.

        Scenario A is dominated by B when, for every common endpoint,
        ``slack_B <= slack_A - guard_margin`` would be too strict — the
        safe direction is: B's slack is always at least ``guard_margin``
        *below* A's, so signing off B covers A. Returns the reduced set
        and the names of dropped scenarios.
        """
        result = self.run(design)
        matrix = result.endpoint_matrix(mode)
        if not matrix:
            return self, []
        names = [s.name for s in self.scenarios]
        dropped: List[str] = []
        for a in names:
            if a in dropped:
                continue
            for b in names:
                if a == b or b in dropped:
                    continue
                if all(
                    row[b] <= row[a] - guard_margin for row in matrix.values()
                ):
                    dropped.append(a)
                    break
        kept = [s for s in self.scenarios if s.name not in dropped]
        return ScenarioSet(kept, stack=self.stack), dropped


def standard_scenario_set(
    design_constraints: Constraints,
    library_factory,
    corners: Optional[List[Tuple[str, float, float, str]]] = None,
) -> ScenarioSet:
    """A typical signoff scenario matrix.

    ``library_factory(process, vdd, temp)`` must return a library;
    ``corners`` rows are (process, vdd, temp_c, beol_corner_name).
    The default nine-view set covers the paper's canonical worst cases:
    slow/cold/Cw (low-V gate-dominated), slow/hot/RCw, fast/cold hold, etc.
    """
    if corners is None:
        corners = [
            ("ss", 0.72, -30.0, "cw"),
            ("ss", 0.72, 125.0, "rcw"),
            ("ss", 0.72, 125.0, "cw"),
            ("tt", 0.80, 25.0, "typ"),
            ("ff", 0.88, -30.0, "cb"),
            ("ff", 0.88, -30.0, "rcb"),
            ("ff", 0.88, 125.0, "cb"),
            ("ssg", 0.72, 125.0, "cw"),
            ("ffg", 0.88, -30.0, "rcb"),
        ]
    scenarios = []
    for process, vdd, temp, beol in corners:
        lib = library_factory(process, vdd, temp)
        scenarios.append(
            Scenario(
                name=f"{process}_{int(vdd * 1000)}mv_{int(temp)}c_{beol}",
                library=lib,
                constraints=design_constraints,
                beol_corner_name=beol,
                temp_c=temp,
            )
        )
    return ScenarioSet(scenarios)
