"""Resilient (timing-error-tolerant) design evaluation ([22]).

[Kahng-Kang-Li-Pineda de Gyvez, TODAES'15] improves *resilient design
implementation*: error-detecting flops plus replay let a design run
beyond its worst-case signoff point, converting rare timing errors into
recovery cycles instead of margin. The classic result is a throughput
curve that rises as the clock is pushed past the worst-case period —
errors are rare at first — and collapses once the replay penalty
dominates; the optimum sits beyond the conventional signoff point.

We compute the curve from the sampled slack matrices of a canonical
SSTA run (:class:`repro.sta.ssta.SstaRun`): every setup slack shifts
linearly with the period, each sampled die counts its failing endpoints,
and the per-cycle error probability averages over dies the chance that
at least one failing endpoint is exercised that cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import SignoffError
from repro.sta.ssta import SstaRun


@dataclass(frozen=True)
class ResilienceConfig:
    """Error-recovery cost model.

    Attributes:
        replay_cycles: cycles lost per detected timing error.
        endpoint_activity: probability an endpoint's critical path is
            actually exercised (with worst-case data) in a given cycle.
        detector_energy_overhead: relative energy cost of the
            error-detecting flops (paid every cycle).
    """

    replay_cycles: float = 5.0
    endpoint_activity: float = 0.05
    detector_energy_overhead: float = 0.10


def cycle_error_probability(
    run: SstaRun,
    period_shift: float,
    config: ResilienceConfig = ResilienceConfig(),
) -> float:
    """P(at least one timing error in a cycle) at T = T0 + period_shift.

    Setup slacks shift by ``period_shift`` (negative = faster clock). On
    a die where k setup endpoints fail, a cycle is error-free when none
    of them is exercised: ``(1 - activity) ** k``. The result is one
    minus that, averaged over the sampled dies.
    """
    if not run.endpoints:
        raise SignoffError("SSTA run has no setup endpoints")
    failing = (run.setup_slacks + period_shift < 0.0).sum(axis=1)
    ok = (1.0 - config.endpoint_activity) ** failing
    return float(1.0 - ok.mean())


@dataclass
class OperatingPoint:
    """One point of the resilience curve."""

    period: float
    error_probability: float
    throughput: float  # useful operations per ns
    energy_per_op: float  # relative units

    @property
    def is_error_free(self) -> bool:
        return self.error_probability < 1e-6


def resilience_curve(
    run: SstaRun,
    base_period: float,
    periods: Sequence[float],
    config: ResilienceConfig = ResilienceConfig(),
) -> List[OperatingPoint]:
    """Throughput/energy across candidate periods.

    Throughput = (1/T) / (1 + P_err * replay); energy per useful op
    carries the detector overhead and the replayed cycles.
    """
    out: List[OperatingPoint] = []
    for period in periods:
        p_err = cycle_error_probability(run, period - base_period, config)
        replay_factor = 1.0 + p_err * config.replay_cycles
        throughput = (1e3 / period) / replay_factor
        energy = (1.0 + config.detector_energy_overhead) * replay_factor
        out.append(
            OperatingPoint(
                period=period,
                error_probability=p_err,
                throughput=throughput,
                energy_per_op=energy,
            )
        )
    return out


def best_operating_point(curve: Sequence[OperatingPoint]) -> OperatingPoint:
    """The throughput-optimal point of a resilience curve."""
    if not curve:
        raise SignoffError("empty resilience curve")
    return max(curve, key=lambda p: p.throughput)


def worst_case_period(
    run: SstaRun,
    base_period: float,
    n_sigma: float = 3.0,
    flat_margin: float = 0.0,
) -> float:
    """The conventional signoff period: error-free at ``n_sigma``
    confidence *plus* the flat margins a non-resilient design must carry
    for what cannot be modeled (jitter residue, IR, model error — see
    :mod:`repro.core.margins`). Resilient designs shed most of that
    flat margin: an un-modeled slow event becomes a detected error
    instead of a silent failure."""
    shift_needed = max(n_sigma * e.sigma - e.mean for e in run.endpoints)
    return base_period + max(shift_needed, 0.0) + flat_margin


def resilience_gain(
    run: SstaRun,
    base_period: float,
    config: ResilienceConfig = ResilienceConfig(),
    flat_margin: float = 30.0,
    n_candidates: int = 25,
) -> Dict[str, float]:
    """Headline comparison: throughput at the resilient optimum vs the
    conventional worst-case signoff point (which carries ``flat_margin``
    ps of unmodelled-effects margin that resilience converts to detected
    errors)."""
    t_wc = worst_case_period(run, base_period, flat_margin=flat_margin)
    periods = np.linspace(0.8 * t_wc, 1.02 * t_wc, n_candidates)
    curve = resilience_curve(run, base_period, periods, config)
    best = best_operating_point(curve)
    conventional = (1e3 / t_wc)
    return {
        "worst_case_period": t_wc,
        "resilient_period": best.period,
        "conventional_throughput": conventional,
        "resilient_throughput": best.throughput,
        "speedup": best.throughput / conventional,
        "error_probability_at_best": best.error_probability,
    }
