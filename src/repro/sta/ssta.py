"""Statistical STA with post-silicon tunable (PST) clock buffers.

The paper's Section 3 arc: corner proliferation stops scaling, margining
goes statistical. This module runs the *unchanged* reference engine under
the canonical-form algebra (:class:`repro.sta.algebra.CanonicalAlgebra`)
to get per-endpoint slack *distributions*, then derives the quantities a
statistical signoff flow reports:

- timing yield at the target period (and at any shifted period — setup
  slack is linear in the period, so a sampled slack matrix answers the
  whole period sweep);
- per-endpoint criticalities — the probability an endpoint is the
  chip's worst — which sum to 1 by construction (argmin counting on a
  shared sample set);
- instance criticalities, endpoint criticality attributed along worst
  paths (the edge/path criticality used to place tuning buffers).

On top sits the PST model of Li & Schlichtmann (arXiv 1705.04986,
1705.04979): a tunable buffer on a capture flop's clock pin adds a
post-silicon shift ``s in [0, tau]`` to the capture clock. Folded into
the capture-side canonical form, a tuned endpoint passes on a die iff
its setup slack sample can be lifted by at most ``tau`` without breaking
the flop's hold slack by the same shift — the graph-transformation
trick reduces per-die tuning to a per-flop interval-feasibility test,
so yield-with-tuning is computed on the same sampled slack matrices.
:func:`tune_to_yield` then greedily picks minimal insertion points —
"tune instead of resize" as a closure alternative.

Everything here is gated by a Monte-Carlo harness
(:func:`monte_carlo_ssta`) that runs the same engine under the
sample-vector algebra on the same LVF tables and variation model.

Statistical interconnect rides along: pass a wire source
(:class:`repro.parasitics.statistical.StatisticalAnnotator`) as
``wires`` and every net edge's wire delay carries its BEOL sigma on a
private (net, sink) slot, in both the canonical run and its Monte-Carlo
oracle. Parametric yield and resilience read the sampled slack matrices
of an :class:`SstaRun` (:mod:`repro.core.yieldmodel`,
:mod:`repro.core.resilience`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TimingError
from repro.liberty.lvf import has_lvf
from repro.sta.algebra import (
    CanonicalAlgebra,
    CanonicalForm,
    MonteCarloAlgebra,
    VariationModel,
    _Phi,
    scalar_of,
    sigma_of,
)
from repro.sta.analysis import STA
from repro.sta.reports import EndpointResult


# ---------------------------------------------------------------------- #
# the SSTA run


@dataclass
class SstaEndpoint:
    """Distributional view of one timing endpoint."""

    endpoint: object
    kind: str  # "setup" | "output" | "hold"
    mean: float
    sigma: float
    #: Analytic P(slack < 0) from the canonical form.
    fail_prob: float
    #: P(this endpoint is the chip's worst setup slack); hold endpoints
    #: report 0. Sums to 1 over setup endpoints.
    criticality: float = 0.0
    #: Capture flop instance ("" for output-port endpoints).
    flop: str = ""


class SstaRun:
    """One canonical-SSTA analysis plus its sampled slack matrices.

    Sampling is deterministic (model seed + endpoint-name CRCs): global
    source draws are shared across all endpoints, so the matrices carry
    the cross-endpoint correlation that yield and criticality need.
    """

    def __init__(self, sta: STA, model: VariationModel,
                 n_samples: int = 4000):
        if not isinstance(sta.algebra, CanonicalAlgebra):
            raise TimingError("SstaRun needs an STA run under "
                              "CanonicalAlgebra")
        if sta.report is None:
            raise TimingError("run() must complete before SSTA extraction")
        self.sta = sta
        self.model = model
        self.report = sta.report
        self.n_samples = n_samples
        self.period = sta.constraints.primary_clock().period

        self.setup_results: List[EndpointResult] = list(self.report.setup)
        self.hold_results: List[EndpointResult] = list(self.report.hold)

        rng = np.random.default_rng(model.seed)
        z_global = rng.standard_normal((n_samples, model.dim))
        self.setup_slacks = self._sample_matrix(
            self.setup_results, z_global, "setup")
        self.hold_slacks = self._sample_matrix(
            self.hold_results, z_global, "hold")

        crit = self._criticalities()
        self.endpoints: List[SstaEndpoint] = []
        for i, e in enumerate(self.setup_results):
            self.endpoints.append(SstaEndpoint(
                endpoint=e.endpoint,
                kind=e.kind,
                mean=scalar_of(e.slack),
                sigma=sigma_of(e.slack),
                fail_prob=self._fail_prob(e.slack),
                criticality=crit[i],
                flop=e.check.instance if e.check is not None else "",
            ))
        self.hold_endpoints: List[SstaEndpoint] = [
            SstaEndpoint(
                endpoint=e.endpoint,
                kind="hold",
                mean=scalar_of(e.slack),
                sigma=sigma_of(e.slack),
                fail_prob=self._fail_prob(e.slack),
                flop=e.check.instance if e.check is not None else "",
            )
            for e in self.hold_results
        ]

    # ------------------------------------------------------------------ #

    def _sample_matrix(self, results: Sequence[EndpointResult],
                       z_global: np.ndarray, tag: str) -> np.ndarray:
        """(n_samples, n_endpoints) slack draws on shared global sources."""
        n = z_global.shape[0]
        cols = []
        for e in results:
            slack = e.slack
            if isinstance(slack, CanonicalForm):
                key = f"{tag}|{e.endpoint}"
                rng = np.random.default_rng(
                    (self.model.seed, zlib.crc32(key.encode()))
                )
                cols.append(slack.sample(z_global, rng.standard_normal(n)))
            else:
                cols.append(np.full(n, float(slack)))
        if not cols:
            return np.zeros((n, 0))
        return np.column_stack(cols)

    @staticmethod
    def _fail_prob(slack) -> float:
        mean, sigma = scalar_of(slack), sigma_of(slack)
        if sigma <= 0.0:
            return 1.0 if mean < 0.0 else 0.0
        return _Phi(-mean / sigma)

    def _criticalities(self) -> np.ndarray:
        if self.setup_slacks.shape[1] == 0:
            return np.zeros(0)
        worst = np.argmin(self.setup_slacks, axis=1)
        counts = np.bincount(worst, minlength=self.setup_slacks.shape[1])
        return counts / float(self.setup_slacks.shape[0])

    # ------------------------------------------------------------------ #
    # yield

    def timing_yield(self, period: Optional[float] = None) -> float:
        """P(every setup and hold check passes) at ``period``.

        Setup/output slack is linear in the period (required time is
        ``T + ...``), so a period shift moves every setup sample by the
        same delta; hold checks are same-edge and unaffected.
        """
        shift = 0.0 if period is None else period - self.period
        ok = np.ones(self.n_samples, dtype=bool)
        if self.setup_slacks.shape[1]:
            ok &= (self.setup_slacks + shift >= 0.0).all(axis=1)
        if self.hold_slacks.shape[1]:
            ok &= (self.hold_slacks >= 0.0).all(axis=1)
        return float(ok.mean())

    def yield_vs_period(self, deltas: Sequence[float]) -> List[Tuple[float, float]]:
        return [(self.period + d, self.timing_yield(self.period + d))
                for d in deltas]

    # ------------------------------------------------------------------ #
    # criticality attribution

    def instance_criticality(self) -> Dict[str, float]:
        """Endpoint criticality attributed along worst paths.

        Each instance accumulates the criticality of every endpoint
        whose worst (mean) path passes through it — the edge/path
        criticality map that guides where tuning or sizing pays off.
        """
        out: Dict[str, float] = {}
        for ep, result in zip(self.endpoints, self.setup_results):
            if ep.criticality <= 0.0:
                continue
            path = self.sta.worst_path(result)
            seen = set()
            for point in path.points:
                inst = point.ref.instance
                if inst and inst not in seen:
                    seen.add(inst)
                    out[inst] = out.get(inst, 0.0) + ep.criticality
        return out

    # ------------------------------------------------------------------ #
    # rendering

    def render(self, limit: int = 10) -> str:
        lines = [
            f"ssta report ({len(self.endpoints)} setup endpoints, "
            f"{len(self.hold_endpoints)} hold, "
            f"{self.n_samples} samples, rho={self.model.rho})",
            f"  period {self.period:.1f} ps -> "
            f"timing yield {self.timing_yield():.4f}",
            f"  {'endpoint':<30} {'mean':>9} {'sigma':>8} "
            f"{'P(fail)':>8} {'crit':>6}",
        ]
        ranked = sorted(self.endpoints, key=lambda e: -e.criticality)
        for e in ranked[:limit]:
            lines.append(
                f"  {str(e.endpoint):<30} {e.mean:9.2f} {e.sigma:8.2f} "
                f"{e.fail_prob:8.4f} {e.criticality:6.3f}"
            )
        return "\n".join(lines)


def require_lvf(library, error=TimingError, **context) -> None:
    """Refuse ``library`` for SSTA unless it carries LVF sigma tables:
    raises ``error`` (with ``context``) before any timing work."""
    if not has_lvf(library):
        raise error(
            "SSTA needs LVF sigma tables on every delay arc "
            f"(library {library.name!r} has none or was stripped)",
            **context,
        )


def run_ssta(
    design,
    library,
    constraints,
    model: Optional[VariationModel] = None,
    n_samples: int = 4000,
    wires=None,
    **sta_kwargs,
) -> SstaRun:
    """Run the reference engine under canonical forms and sample it.

    ``wires`` is an optional statistical wire source
    (:class:`repro.parasitics.statistical.StatisticalAnnotator`); without
    it wire delays are nominal. A caller holding a scenario builds
    through :meth:`~repro.sta.mcmm.Scenario.sta` and :class:`SstaRun`.
    """
    require_lvf(library)
    model = model or VariationModel()
    sta = STA(design, library, constraints,
              algebra=CanonicalAlgebra(design, model, wires=wires),
              **sta_kwargs)
    sta.run()
    return SstaRun(sta, model, n_samples=n_samples)


# ---------------------------------------------------------------------- #
# Monte-Carlo validation


@dataclass
class McResult:
    """Moments from a sample-vector (Monte-Carlo) engine run."""

    n_samples: int
    #: endpoint str -> (mean, sigma) of setup slack
    setup_moments: Dict[str, Tuple[float, float]]
    timing_yield: float

    @classmethod
    def from_sta(cls, sta: STA) -> "McResult":
        """Moments and yield of an STA run under a
        :class:`~repro.sta.algebra.MonteCarloAlgebra`."""
        alg = sta.algebra
        moments: Dict[str, Tuple[float, float]] = {}
        ok = np.ones(alg.n_samples, dtype=bool)
        for e in sta.report.setup:
            vec = alg.samples_of(e.slack)
            moments[str(e.endpoint)] = (float(vec.mean()), float(vec.std()))
            ok &= vec >= 0.0
        for e in sta.report.hold:
            ok &= alg.samples_of(e.slack) >= 0.0
        return cls(
            n_samples=alg.n_samples,
            setup_moments=moments,
            timing_yield=float(ok.mean()),
        )


def monte_carlo_ssta(
    design,
    library,
    constraints,
    model: Optional[VariationModel] = None,
    n_samples: int = 2000,
    wires=None,
    **sta_kwargs,
) -> McResult:
    """The independent oracle: the same engine, same LVF tables, same
    variation model and same wire source, but propagating concrete
    sample vectors — exact per-sample max/min instead of Clark's moment
    matching."""
    model = model or VariationModel()
    alg = MonteCarloAlgebra(design, model, n_samples=n_samples, wires=wires)
    sta = STA(design, library, constraints, algebra=alg, **sta_kwargs)
    sta.run()
    return McResult.from_sta(sta)


# ---------------------------------------------------------------------- #
# PST clock-buffer tuning


@dataclass
class TuneResult:
    """Outcome of the greedy PST insertion pass."""

    tune_range: float
    target_yield: float
    baseline_yield: float
    tuned_yield: float
    #: Flop instances that received a PST buffer, in insertion order.
    selected: List[str] = field(default_factory=list)
    #: Yield after each insertion (parallel to ``selected``).
    steps: List[float] = field(default_factory=list)

    @property
    def achieved(self) -> bool:
        return self.tuned_yield >= self.target_yield

    @property
    def yield_gain(self) -> float:
        return self.tuned_yield - self.baseline_yield

    def render(self) -> str:
        lines = [
            f"pst tuning: range {self.tune_range:.1f} ps, "
            f"target yield {self.target_yield:.4f}",
            f"  baseline yield {self.baseline_yield:.4f} -> "
            f"tuned {self.tuned_yield:.4f} "
            f"({len(self.selected)} buffers, "
            f"{'target met' if self.achieved else 'target missed'})",
        ]
        for flop, y in zip(self.selected, self.steps):
            lines.append(f"    + {flop:<24} yield {y:.4f}")
        return "\n".join(lines)


class _PstEvaluator:
    """Vectorized per-die feasibility for a set of tuned flops.

    A PST buffer on flop ``f`` shifts its capture clock by
    ``s in [-tau, +tau]`` (a trombone delay line tuned around its
    nominal center tap): positive shift buys setup slack, negative
    shift buys hold slack. On die ``d`` the flop's checks are all
    satisfiable iff the shift interval intersects the slack window:

        max(need_f(d), -tau_f) <= min(tau_f, head_f(d))

    where ``need = max(-setup slack)`` over f's setup endpoints (the
    smallest shift that rescues setup) and ``head = min(hold slack)``
    (the largest shift hold tolerates). Untuned flops are the
    ``tau = 0`` case. Endpoints with no capture flop (output ports)
    simply need nonnegative slack.

    Shifts are applied at the clock leaf (capture side only) — the
    launch-side effect of a mid-tree buffer is ignored, the standard
    endpoint-granularity simplification of the graph-transformation
    formulation.
    """

    def __init__(self, run: SstaRun):
        self.run = run
        n = run.n_samples
        setup_by_flop: Dict[str, List[int]] = {}
        fixed_ok = np.ones(n, dtype=bool)
        for i, ep in enumerate(run.endpoints):
            if ep.flop:
                setup_by_flop.setdefault(ep.flop, []).append(i)
            else:
                fixed_ok &= run.setup_slacks[:, i] >= 0.0
        hold_by_flop: Dict[str, List[int]] = {}
        for i, ep in enumerate(run.hold_endpoints):
            if ep.flop:
                hold_by_flop.setdefault(ep.flop, []).append(i)
            else:
                fixed_ok &= run.hold_slacks[:, i] >= 0.0

        self.flops = sorted(set(setup_by_flop) | set(hold_by_flop))
        self.fixed_ok = fixed_ok
        self.need: Dict[str, np.ndarray] = {}
        self.head: Dict[str, np.ndarray] = {}
        for f in self.flops:
            cols = setup_by_flop.get(f, [])
            self.need[f] = (
                np.max(-run.setup_slacks[:, cols], axis=1) if cols
                else np.full(n, -np.inf)
            )
            cols = hold_by_flop.get(f, [])
            self.head[f] = (
                np.min(run.hold_slacks[:, cols], axis=1) if cols
                else np.full(n, np.inf)
            )

    def feasible(self, flop: str, tau: float) -> np.ndarray:
        lo = np.maximum(self.need[flop], -tau)
        return lo <= np.minimum(tau, self.head[flop])


def tune_to_yield(
    run: SstaRun,
    target_yield: float = 0.99,
    tune_range: float = 40.0,
    max_buffers: Optional[int] = None,
) -> TuneResult:
    """Greedy minimal PST insertion to reach a yield target.

    Each step inserts the buffer with the largest yield gain; when no
    single insertion moves chip yield (several flops must be tuned
    before any die passes), the expected per-die count of infeasible
    flops is the tie-breaking gradient, then aggregate endpoint
    criticality. Stops when the target is met, the budget is spent, or
    no insertion improves either objective.
    """
    ev = _PstEvaluator(run)
    crit_by_flop: Dict[str, float] = {}
    for ep in run.endpoints:
        if ep.flop:
            crit_by_flop[ep.flop] = crit_by_flop.get(ep.flop, 0.0) \
                + ep.criticality

    feas0 = {f: ev.feasible(f, 0.0) for f in ev.flops}
    feasT = {f: ev.feasible(f, tune_range) for f in ev.flops}
    fail_count = sum((~feas0[f]).astype(np.int32) for f in ev.flops) \
        if ev.flops else np.zeros(run.n_samples, dtype=np.int32)

    baseline = float((ev.fixed_ok & (fail_count == 0)).mean())
    result = TuneResult(
        tune_range=tune_range,
        target_yield=target_yield,
        baseline_yield=baseline,
        tuned_yield=baseline,
    )
    budget = max_buffers if max_buffers is not None else len(ev.flops)
    remaining = set(ev.flops)
    total_fail = int(fail_count.sum())
    while result.tuned_yield < target_yield and remaining \
            and len(result.selected) < budget:
        best_f: Optional[str] = None
        best_score = (-1.0, -float("inf"), -1.0)
        best_fail = total_fail
        for f in sorted(remaining):
            new_fail = fail_count - (~feas0[f]) + (~feasT[f])
            y = float((ev.fixed_ok & (new_fail == 0)).mean())
            nf = int(new_fail.sum())
            score = (y, -nf, crit_by_flop.get(f, 0.0))
            if score > best_score:
                best_score, best_f, best_fail = score, f, nf
        if best_f is None or (best_score[0] <= result.tuned_yield
                              and best_fail >= total_fail):
            break
        fail_count = fail_count - (~feas0[best_f]) + (~feasT[best_f])
        total_fail = best_fail
        remaining.discard(best_f)
        result.selected.append(best_f)
        result.steps.append(best_score[0])
        result.tuned_yield = best_score[0]
    return result


def yield_vs_tuning_range(
    run: SstaRun,
    ranges: Sequence[float],
    target_yield: float = 0.999,
    max_buffers: Optional[int] = None,
) -> List[TuneResult]:
    """The PST recovery curve: tuned yield as the range tau grows."""
    return [
        tune_to_yield(run, target_yield=target_yield, tune_range=tau,
                      max_buffers=max_buffers)
        for tau in ranges
    ]


# ---------------------------------------------------------------------- #
# the PST benchmark block


def pst_benchmark_setup(seed: int = 9, n_gates: int = 160,
                        headroom_sigma: float = 1.0):
    """(design, library, constraints) tuned so nominal timing passes but
    process variation fails an interesting fraction of dies.

    The period is set from a scalar pre-pass: worst mean slack lands at
    ``headroom_sigma`` times the worst endpoint sigma, which puts the
    yield in the recoverable band the PST story needs.
    """
    from repro.liberty.stdcells import make_library
    from repro.netlist.generators import random_logic
    from repro.sta.constraints import Constraints

    design = random_logic(
        name=f"pstblk{seed}",
        n_inputs=12, n_outputs=12,
        n_gates=n_gates, n_levels=max(6, n_gates // 20),
        seed=seed,
    )
    library = make_library()
    constraints = Constraints.single_clock(800.0)

    probe = run_ssta(design, library, constraints, n_samples=256)
    worst = min(probe.endpoints, key=lambda e: e.mean - 3 * e.sigma)
    slack_at_800 = worst.mean
    period = 800.0 - slack_at_800 + headroom_sigma * max(worst.sigma, 1.0)
    return design, library, constraints.with_period(period)
