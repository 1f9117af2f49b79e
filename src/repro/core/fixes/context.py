"""Shared context passed to every fix engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from repro.liberty.library import Library
from repro.netlist.design import Design
from repro.sta.analysis import STA
from repro.sta.reports import TimingPath, TimingReport


@dataclass
class FixContext:
    """What a fix engine gets to work with.

    ``sta`` has been run: ``report`` and path reconstruction are valid
    against the design state at the start of the iteration. Engines
    mutate ``design`` (or ``sta.constraints``) and must record instance
    names they touched in ``touched`` so later engines in the same
    iteration avoid compounding edits on stale timing.
    """

    design: Design
    library: Library
    sta: STA
    report: TimingReport
    budget: int  # maximum edits this engine may make
    endpoint_limit: int = 10  # how many worst endpoints to examine
    touched: Set[str] = field(default_factory=set)

    def worst_setup_paths(self) -> List[TimingPath]:
        """Worst paths of the violating setup endpoints (worst first)."""
        out = []
        for endpoint in self.report.violations("setup")[: self.endpoint_limit]:
            out.append(self.sta.worst_path(endpoint))
        return out

    def cell_points(self, path: TimingPath, largest_first: bool = True):
        """The cell-stage points of a path, optionally by delay impact."""
        points = [p for p in path.points if p.kind == "cell" and not p.ref.is_port]
        if largest_first:
            points.sort(key=lambda p: -p.increment)
        return points

    def may_touch(self, instance: str) -> bool:
        return (
            instance not in self.touched
            and not self.design.instance(instance).dont_touch
        )

    def mark(self, instance: str) -> None:
        self.touched.add(instance)
