"""Useful-skew scheduling.

Deliberately skewing capture clocks steals slack from fast stages and
gives it to slow ones — the last resort in the MacDonald fix ordering of
the paper's Fig 1. We solve the classic formulation as an LP: choose a
latency offset per flop within [0, max_adjust], maximizing the worst
setup slack while keeping every hold slack non-negative.

Offsets are realized through ``Constraints.clock_latency`` (the STA
applies them to both the launch and capture roles of each flop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np
from scipy.optimize import linprog

from repro.errors import TimingError


@dataclass(frozen=True)
class SkewStage:
    """One launch->capture stage with its current slacks (ps)."""

    launch: str
    capture: str
    setup_slack: float
    hold_slack: float


@dataclass
class UsefulSkewResult:
    """The schedule and its predicted effect."""

    offsets: Dict[str, float]
    baseline_wns: float
    predicted_wns: float

    @property
    def improvement(self) -> float:
        return self.predicted_wns - self.baseline_wns


def schedule_useful_skew(
    stages: Sequence[SkewStage],
    max_adjust: float = 50.0,
    hold_guard: float = 0.0,
) -> UsefulSkewResult:
    """Solve the useful-skew LP.

    Variables: offset d_f per flop, worst slack t. For stage (i -> j)::

        setup: t <= setup_slack_ij + d_j - d_i
        hold:       hold_slack_ij + d_i - d_j >= hold_guard

    Offsets bounded to [0, max_adjust].
    """
    if not stages:
        raise TimingError("need at least one stage to schedule")
    flops = sorted({s.launch for s in stages} | {s.capture for s in stages})
    index = {f: i for i, f in enumerate(flops)}
    n = len(flops)

    c = np.zeros(n + 1)
    c[-1] = -1.0  # maximize t
    a_ub: List[np.ndarray] = []
    b_ub: List[float] = []
    for st in stages:
        i, j = index[st.launch], index[st.capture]
        # t - d_j + d_i <= setup_slack
        row = np.zeros(n + 1)
        row[-1] = 1.0
        row[j] -= 1.0
        row[i] += 1.0
        a_ub.append(row)
        b_ub.append(st.setup_slack)
        # d_j - d_i <= hold_slack - guard
        row = np.zeros(n + 1)
        row[j] += 1.0
        row[i] -= 1.0
        a_ub.append(row)
        b_ub.append(st.hold_slack - hold_guard)
    bounds = [(0.0, max_adjust)] * n + [(None, None)]
    res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  bounds=bounds, method="highs")
    baseline = min(s.setup_slack for s in stages)
    if not res.success:
        return UsefulSkewResult(
            offsets={f: 0.0 for f in flops},
            baseline_wns=baseline,
            predicted_wns=baseline,
        )
    # HiGHS honours bounds only to its feasibility tolerance: clamp
    # onto the declared range.
    offsets = {f: min(max(float(res.x[index[f]]), 0.0), max_adjust)
               for f in flops}
    predicted = min(
        st.setup_slack + offsets[st.capture] - offsets[st.launch]
        for st in stages
    )
    return UsefulSkewResult(
        offsets=offsets,
        baseline_wns=baseline,
        predicted_wns=predicted,
    )


def stages_from_report(sta, report, limit: int = 100) -> List[SkewStage]:
    """Extract skew-schedulable stages from STA setup+hold endpoints.

    Pairs each setup endpoint's worst path with the matching hold slack at
    the same endpoint (conservatively using the endpoint's own hold slack).
    """
    hold_by_endpoint = {e.endpoint: e.slack for e in report.endpoints("hold")}
    stages: List[SkewStage] = []
    for endpoint in report.endpoints("setup")[:limit]:
        if endpoint.kind != "setup" or endpoint.check is None:
            continue
        path = sta.worst_path(endpoint)
        launch = None
        for point in path.points:
            if not point.ref.is_port and point.ref.pin == "Q":
                launch = point.ref.instance
                break
        if launch is None or launch == endpoint.check.instance:
            continue
        stages.append(
            SkewStage(
                launch=launch,
                capture=endpoint.check.instance,
                setup_slack=endpoint.slack,
                hold_slack=hold_by_endpoint.get(endpoint.endpoint, 1e9),
            )
        )
    return stages
