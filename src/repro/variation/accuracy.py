"""The Section 3.1 accuracy ladder: flat OCV -> AOCV -> POCV -> LVF.

Each model predicts the +3-sigma path-delay increment over nominal for a
set of critical paths; predictions are compared against Monte Carlo truth
(:func:`repro.variation.montecarlo.mc_path_delays`). The expected ranking
— the paper's claim that "LVF-based timing analysis has greater accuracy
than AOCV/POCV with respect to Monte Carlo SPICE results" — follows from
each model's information loss:

- *LVF* keeps per-arc, per-(slew, load) sigmas: only statistical error;
- *POCV* keeps one relative sigma per cell: loses the load dependence;
- *AOCV* keeps one sigma for the whole library, indexed by depth: loses
  the per-cell identity ("assumes all gates identical and identically
  loaded");
- *flat OCV* keeps a single factor: loses the depth averaging too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import TimingError
from repro.liberty.aocv import AocvTable, arc_pocv_sigma, library_reference_sigma
from repro.sta.reports import TimingPath
from repro.variation.montecarlo import (
    _path_cell_stages,
    mc_path_delays,
    nominal_path_delay,
)

MODELS = ("flat", "aocv", "pocv", "lvf")


def predicted_path_delta(
    sta,
    path: TimingPath,
    model: str,
    n_sigma: float = 3.0,
    flat_fraction: float = 0.10,
    aocv_table: Optional[AocvTable] = None,
) -> float:
    """Predicted +n-sigma delay increment (ps) over nominal for a path."""
    stages = _path_cell_stages(sta, path)
    if not stages:
        raise TimingError("path has no cell stages")
    nominal = [
        edge.arc.delay_and_slew(out_dir, in_slew, load)[0]
        for edge, out_dir, in_slew, load in stages
    ]
    cell_total = float(sum(nominal))

    if model == "flat":
        return flat_fraction * cell_total

    if model == "aocv":
        if aocv_table is None:
            ref = library_reference_sigma(
                [c for c in sta.library.cells.values()
                 if c.size == 1.0 and c.vt_flavor == "svt"]
            )
            aocv_table = AocvTable.from_reference_sigma(ref, n_sigma=n_sigma)
        derate = aocv_table.derate(len(stages), 0.0, "late")
        return (derate - 1.0) * cell_total

    if model == "pocv":
        var = 0.0
        for (edge, out_dir, in_slew, load), d in zip(stages, nominal):
            sigma_rel = arc_pocv_sigma(edge.arc, out_dir, "late")
            var += (sigma_rel * d) ** 2
        return n_sigma * math.sqrt(var)

    if model == "lvf":
        var = 0.0
        for edge, out_dir, in_slew, load in stages:
            sigma = edge.arc.sigma(out_dir, in_slew, load, "late")
            if sigma is None:
                raise TimingError("LVF sigmas missing from library")
            var += sigma**2
        return n_sigma * math.sqrt(var)

    raise TimingError(f"unknown variation model {model!r}; pick from {MODELS}")


@dataclass
class LadderRow:
    """Accuracy of one model over a path population."""

    model: str
    mean_abs_error: float  # |predicted - true| averaged over paths, ps
    mean_signed_error: float  # >0 = pessimistic on average
    predictions: List[float]


def true_path_deltas(
    sta,
    paths: Sequence[TimingPath],
    n_samples: int = 2000,
    seed: int = 0,
) -> List[float]:
    """Monte Carlo +3-sigma increments (p99.87 - nominal) per path."""
    out = []
    for i, path in enumerate(paths):
        samples = mc_path_delays(sta, path, n_samples=n_samples, seed=seed + i)
        nominal = nominal_path_delay(sta, path)
        out.append(float(np.percentile(samples, 99.87)) - nominal)
    return out


def ladder_comparison(
    sta,
    paths: Sequence[TimingPath],
    n_samples: int = 2000,
    seed: int = 0,
    flat_fraction: float = 0.10,
    models: Sequence[str] = MODELS,
) -> Dict[str, LadderRow]:
    """Run the full ladder over a path population.

    Returns per-model accuracy rows keyed by model name; the invariant the
    tests (and the paper) expect is
    ``err(lvf) <= err(pocv) <= err(aocv)`` on mixed-load path sets.
    """
    truth = true_path_deltas(sta, paths, n_samples=n_samples, seed=seed)
    rows: Dict[str, LadderRow] = {}
    for model in models:
        preds = [
            predicted_path_delta(sta, p, model, flat_fraction=flat_fraction)
            for p in paths
        ]
        errors = [pred - t for pred, t in zip(preds, truth)]
        rows[model] = LadderRow(
            model=model,
            mean_abs_error=float(np.mean(np.abs(errors))),
            mean_signed_error=float(np.mean(errors)),
            predictions=preds,
        )
    return rows
