"""Margin recovery with flexible flip-flop timing ([Kahng-Lee ISQED'14]).

The conventional flow characterizes every flop at a fixed pushout point
(setup = s_pushout, c2q = c2q(s_pushout)) and checks

    c2q(launch) + data_delay + setup(capture) <= T.

But the (setup, c2q) pairs are *points on a curve*: a flop allowed to run
with less setup margin captures later but still correctly, at the cost of
a larger c2q into the next stage — and vice versa. Choosing each flop's
operating point globally is a small convex-ish program; we solve it with
a sequential LP (linearize c2q(s) at the current point, trust region,
repeat), maximizing the worst stage slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np
from scipy.optimize import linprog

from repro.errors import ReproError
from repro.flops.model import InterdependentFlopModel


@dataclass(frozen=True)
class Stage:
    """One launch->capture stage: combinational delay between two flops."""

    launch: str
    capture: str
    data_delay: float


@dataclass
class RecoveryResult:
    """Outcome of the margin-recovery optimization."""

    baseline_wns: float
    recovered_wns: float
    setup_points: Dict[str, float]  # chosen setup margin per flop
    iterations: int

    @property
    def improvement(self) -> float:
        return self.recovered_wns - self.baseline_wns


def baseline_wns(
    stages: Sequence[Stage],
    model: InterdependentFlopModel,
    period: float,
    pushout_fraction: float = 0.10,
) -> float:
    """Worst slack with the conventional fixed pushout characterization."""
    s_fix = model.pushout_setup(pushout_fraction)
    c2q_fix = model.c2q(s_fix)
    return min(
        period - c2q_fix - st.data_delay - s_fix for st in stages
    )


def recover_margin(
    stages: Sequence[Stage],
    model: InterdependentFlopModel,
    period: float,
    pushout_fraction: float = 0.10,
    iterations: int = 12,
    s_max: float = 120.0,
    trust_radius: float = 15.0,
) -> RecoveryResult:
    """Maximize worst stage slack by re-choosing per-flop setup points.

    Variables: one setup margin s_f per flop, plus the worst slack t.
    Constraints per stage (i -> j)::

        t <= T - c2q_i(s_i) - d_ij - s_j

    with c2q_i linearized at the current iterate. The fixed-pushout
    solution is the starting point, so the result can never be worse.
    """
    if not stages:
        raise ReproError("need at least one stage to optimize")
    flops = sorted({st.launch for st in stages} | {st.capture for st in stages})
    index = {f: i for i, f in enumerate(flops)}
    n = len(flops)

    s_fix = model.pushout_setup(pushout_fraction)
    s_lo = model.s_wall + 0.5
    current = np.full(n, s_fix)
    base = baseline_wns(stages, model, period, pushout_fraction)

    best_wns = base
    best_points = current.copy()

    for it in range(iterations):
        # Maximize t: variables x = [s_0..s_{n-1}, t]; minimize -t.
        c = np.zeros(n + 1)
        c[-1] = -1.0
        a_ub: List[np.ndarray] = []
        b_ub: List[float] = []
        for st in stages:
            i, j = index[st.launch], index[st.capture]
            c2q_i = model.c2q(current[i])
            grad_i = model.dc2q_dsetup(current[i])
            # t + grad_i * s_i + s_j <= T - d - (c2q_i - grad_i * s_i^k)
            row = np.zeros(n + 1)
            row[-1] = 1.0
            row[i] += grad_i
            row[j] += 1.0
            a_ub.append(row)
            b_ub.append(
                period - st.data_delay - (c2q_i - grad_i * current[i])
            )
        bounds = [
            (max(s_lo, current[k] - trust_radius),
             min(s_max, current[k] + trust_radius))
            for k in range(n)
        ] + [(None, None)]
        res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                      bounds=bounds, method="highs")
        if not res.success:
            break
        new = res.x[:n]
        current = new
        wns = _true_wns(stages, index, current, model, period)
        if wns > best_wns:
            best_wns = wns
            best_points = current.copy()
        if abs(res.x[-1] - wns) < 1e-3:
            break

    return RecoveryResult(
        baseline_wns=base,
        recovered_wns=best_wns,
        setup_points={f: float(best_points[index[f]]) for f in flops},
        iterations=it + 1,
    )


def _true_wns(stages, index, setups, model, period) -> float:
    return min(
        period
        - model.c2q(float(setups[index[st.launch]]))
        - st.data_delay
        - float(setups[index[st.capture]])
        for st in stages
    )


def stages_from_sta(sta, report, limit: int = 50) -> List[Stage]:
    """Extract launch->capture stages from an STA report's worst setup
    endpoints: data_delay is the D-arrival minus the launch c2q and clock
    arrival, i.e. the pure combinational portion."""
    stages = []
    for endpoint in report.endpoints("setup")[:limit]:
        if endpoint.kind != "setup" or endpoint.check is None:
            continue
        path = sta.worst_path(endpoint)
        launch = None
        for point in path.points:
            if not point.ref.is_port and point.ref.pin == "Q":
                launch = point.ref.instance
                break
        if launch is None:
            continue
        comb_delay = sum(
            p.increment for p in path.points
            if not (p.ref.pin in ("CK", "Q") and p.kind == "cell")
            and p.kind in ("cell", "net")
        )
        stages.append(
            Stage(
                launch=launch,
                capture=endpoint.check.instance,
                data_delay=comb_delay,
            )
        )
    return stages
