"""Monte Carlo timing analysis.

Two levels of MC, matching how the paper's evidence was produced:

1. **STA-level** (:func:`mc_path_delays`): sample per-stage delay
   perturbations from the library's LVF sigma tables — asymmetric (larger
   late than early sigma) — over the cell edges of a reported path. This
   is the "ground truth" the model-accuracy ladder is judged against.

2. **Device-level** (:func:`spice_chain_mc`): build an inverter chain at
   the transistor level, perturb device thresholds/current factors, and
   transient-simulate each sample. The resulting delay distribution is
   right-skewed *emergently* (delay is convex in threshold voltage) —
   the physical origin of Fig 7's "setup long tail".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import TimingError
from repro.sta.graph import CellEdge
from repro.sta.propagation import driver_load
from repro.sta.reports import TimingPath


@dataclass
class PathDelayStats:
    """Statistics of a Monte-Carlo path-delay sample set (ps)."""

    mean: float
    nominal: float
    sigma: float
    skewness: float
    sigma_late: float  # (p99.87 - median) / 3
    sigma_early: float  # (median - p0.13) / 3

    @property
    def asymmetry(self) -> float:
        """sigma_late / sigma_early; > 1 means a setup long tail."""
        if self.sigma_early <= 0:
            return float("inf")
        return self.sigma_late / self.sigma_early


def path_delay_statistics(samples: np.ndarray,
                          nominal: Optional[float] = None) -> PathDelayStats:
    """Summarize an MC sample set, including the tail asymmetry."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 8:
        raise TimingError("need at least 8 MC samples for statistics")
    mean = float(samples.mean())
    sigma = float(samples.std())
    med = float(np.median(samples))
    p_hi = float(np.percentile(samples, 99.87))
    p_lo = float(np.percentile(samples, 0.13))
    centered = samples - mean
    skew = float((centered**3).mean() / max(sigma, 1e-12) ** 3)
    return PathDelayStats(
        mean=mean,
        nominal=nominal if nominal is not None else med,
        sigma=sigma,
        skewness=skew,
        sigma_late=(p_hi - med) / 3.0,
        sigma_early=(med - p_lo) / 3.0,
    )


def _path_cell_stages(sta, path: TimingPath) -> List[Tuple[CellEdge, str, float, float]]:
    """(edge, out_dir, in_slew, load) for each cell stage along a path."""
    stages = []
    prev_slew = sta.constraints.default_input_slew
    for i, point in enumerate(path.points):
        if point.kind != "cell":
            prev_slew = point.slew
            continue
        # Reconstruct which edge produced this point from backpointers.
        arr = sta.prop.at(point.ref, point.direction)
        pred = arr.pred_late if path.mode == "setup" else arr.pred_early
        if pred is None:
            continue
        edge, _ = pred
        if not isinstance(edge, CellEdge):
            continue
        load = driver_load(sta.graph, sta.parasitics, edge.dst)
        in_slew = path.points[i - 1].slew if i > 0 else prev_slew
        stages.append((edge, point.direction, in_slew, load))
        prev_slew = point.slew
    return stages


def mc_path_delays(
    sta,
    path: TimingPath,
    n_samples: int = 2000,
    seed=0,
    global_sigma_frac: float = 0.0,
) -> np.ndarray:
    """Sample total path delay with per-stage LVF-sigma perturbations.

    ``seed`` is anything ``numpy.random.default_rng`` accepts — an int,
    a ``SeedSequence``, or an already-constructed ``Generator`` (passed
    through unchanged), so callers can inject one seeded stream across a
    whole experiment.

    Each stage draws an independent standard normal z; the delay
    perturbation is ``z * sigma_late`` for z > 0 and ``z * sigma_early``
    for z < 0 — the asymmetric two-sided model encoded in the LVF tables.
    An optional fully-correlated component (``global_sigma_frac`` of each
    stage's sigma) models die-to-die residue.

    Returns an array of total cell-stage delays (wire delays are held
    nominal and added as a constant).
    """
    stages = _path_cell_stages(sta, path)
    if not stages:
        raise TimingError("path has no cell stages to perturb")
    rng = np.random.default_rng(seed)

    nominal_delays = []
    sig_late = []
    sig_early = []
    for edge, out_dir, in_slew, load in stages:
        d, _ = edge.arc.delay_and_slew(out_dir, in_slew, load)
        sl = edge.arc.sigma(out_dir, in_slew, load, "late")
        se = edge.arc.sigma(out_dir, in_slew, load, "early")
        if sl is None or se is None:
            raise TimingError(
                f"arc on {edge.instance} lacks LVF sigmas; MC needs them"
            )
        nominal_delays.append(d)
        sig_late.append(sl)
        sig_early.append(se)

    nominal = np.array(nominal_delays)
    s_late = np.array(sig_late)
    s_early = np.array(sig_early)
    wire_delay = path.net_delay()

    z = rng.standard_normal((n_samples, len(stages)))
    if global_sigma_frac > 0.0:
        zg = rng.standard_normal((n_samples, 1))
        z = np.sqrt(1.0 - global_sigma_frac**2) * z + global_sigma_frac * zg
    perturb = np.where(z > 0.0, z * s_late, z * s_early)
    totals = (nominal + perturb).sum(axis=1) + wire_delay
    return totals


def nominal_path_delay(sta, path: TimingPath) -> float:
    """Nominal (unperturbed) cell+wire delay of the same stage model used
    by :func:`mc_path_delays`."""
    stages = _path_cell_stages(sta, path)
    total = path.net_delay()
    for edge, out_dir, in_slew, load in stages:
        d, _ = edge.arc.delay_and_slew(out_dir, in_slew, load)
        total += d
    return total


# ---------------------------------------------------------------------- #
# device-level MC


def _chain_mc_sample(n_stages: int, vdd: float, temp_c: float,
                     sigma_vt: float, dt: float, index: int,
                     rng: np.random.Generator) -> float:
    """Build, perturb and simulate one inverter-chain MC sample.

    Module-level (picklable) so :func:`repro.spice.montecarlo.
    evaluate_samples` can fan samples out over a process pool.
    """
    from repro.spice.gates import add_inverter
    from repro.spice.measure import delay_between
    from repro.spice.network import GROUND, Circuit
    from repro.spice.stimulus import Ramp
    from repro.spice.transient import simulate

    circuit = Circuit("chain_mc", temp_c=temp_c)
    vdd_node = circuit.add_vdd(vdd)
    prev = "in"
    for i in range(n_stages):
        out = f"x{i}"
        add_inverter(circuit, f"u{i}", prev, out, vdd_node)
        circuit.add_capacitor(out, GROUND, 3.0)
        prev = out
    circuit.add_source("in", Ramp(0.0, 30.0, 0.0, vdd))
    for fet in circuit.transistors:
        fet.vt_shift = float(rng.normal(0.0, sigma_vt))
    horizon = 120.0 + 45.0 * n_stages
    result = simulate(circuit, t_stop=horizon, dt=dt, t_start=-40.0,
                      record=["in", prev])
    out_dir = "rise" if n_stages % 2 == 0 else "fall"
    return delay_between(
        result.times, result.wave("in"), result.wave(prev),
        vdd, "rise", out_dir,
    )


def spice_chain_mc(
    n_stages: int = 8,
    n_samples: int = 200,
    vdd: float = 0.8,
    temp_c: float = 25.0,
    seed: int = 0,
    sigma_vt: float = 0.03,
    dt: float = 1.0,
    jobs: int = 1,
    executor: str = "thread",
) -> np.ndarray:
    """Transistor-level MC of an inverter-chain delay.

    Each sample builds the chain, perturbs every device's threshold
    (N(0, sigma_vt)) from its own spawned generator, and re-simulates.
    Returns total 50%-to-50% delays (ps). The distribution is
    right-skewed because delay grows super-linearly as overdrive
    shrinks. Samples draw from per-sample seeds spawned off ``seed``, so
    results are bit-identical for any ``jobs`` count.
    """
    from functools import partial

    from repro.spice.montecarlo import evaluate_samples

    sample = partial(_chain_mc_sample, n_stages, vdd, temp_c, sigma_vt, dt)
    delays = evaluate_samples(sample, n_samples, seed=seed, jobs=jobs,
                              executor=executor)
    return np.asarray(delays, dtype=float)
