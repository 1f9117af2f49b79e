"""Variation-aware timing analysis.

The model ladder of the paper's Section 3.1 — flat OCV, AOCV, POCV, LVF —
plus the Monte Carlo machinery that serves as ground truth:

- :mod:`repro.variation.derate` — builders for flat-OCV and AOCV derate
  configurations;
- :mod:`repro.variation.montecarlo` — Monte Carlo at two levels: sampling
  the LVF ground truth over STA paths/graphs, and transistor-level chain
  MC through :mod:`repro.spice` (the physical origin of the Fig 7
  asymmetry);
- :mod:`repro.variation.accuracy` — the accuracy-ladder experiment:
  per-model predicted 3-sigma path-delay deltas vs Monte Carlo truth.

Statistical STA itself (block-based canonical forms with Clark's max,
and its Monte-Carlo oracle) runs the timing engine under a statistical
algebra: see :mod:`repro.sta.ssta`.
"""

from repro.variation.derate import flat_ocv_derates, aocv_derates
from repro.variation.montecarlo import (
    mc_path_delays,
    path_delay_statistics,
    spice_chain_mc,
)
from repro.variation.accuracy import ladder_comparison, predicted_path_delta

__all__ = [
    "flat_ocv_derates",
    "aocv_derates",
    "mc_path_delays",
    "path_delay_statistics",
    "spice_chain_mc",
    "ladder_comparison",
    "predicted_path_delta",
]
