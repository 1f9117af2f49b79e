"""Static timing analysis.

A full STA stack over the netlist + library + parasitics substrates:

- :mod:`repro.sta.graph` — pin-level timing graph with levelization;
- :mod:`repro.sta.constraints` — clocks, I/O delays, uncertainties and
  signoff margins (SDC-lite);
- :mod:`repro.sta.propagation` — early/late arrival and slew propagation
  (graph-based analysis, GBA) with flat-OCV and AOCV derating;
- :mod:`repro.sta.analysis` — the :class:`~repro.sta.analysis.STA`
  orchestrator: setup/hold/max-transition checks and reports;
- :mod:`repro.sta.pba` — path enumeration and path-based analysis (PBA)
  with path-specific slew recomputation and CPPR credit;
- :mod:`repro.sta.si` — coupling-noise delta delays;
- :mod:`repro.sta.kernel` — compiled array kernel timing every corner of
  a mode in one vectorized pass, bit-compatible with the reference;
- :mod:`repro.sta.mcmm` — multi-corner multi-mode scenario management;
- :mod:`repro.sta.scheduler` — parallel multi-corner signoff with
  content-hash result caching;
- :mod:`repro.sta.algebra` — pluggable timing-value algebras: scalar,
  canonical first-order (SSTA) and Monte-Carlo sample vectors;
- :mod:`repro.sta.ssta` — statistical STA: endpoint slack distributions,
  timing yield and post-silicon-tunable clock buffer selection;
- :mod:`repro.sta.reports` — timing reports and histograms.
"""

from repro.sta.algebra import (
    SCALAR,
    CanonicalAlgebra,
    MonteCarloAlgebra,
    ScalarAlgebra,
    TimingAlgebra,
    VariationModel,
)
from repro.sta.analysis import STA
from repro.sta.constraints import ClockSpec, Constraints
from repro.sta.propagation import Derates
from repro.sta.reports import TimingReport
from repro.sta.etm import ExtractedTimingModel, extract_etm
from repro.sta.incremental import IncrementalTimer
from repro.sta.kernel import (
    ENGINES,
    CompiledKernel,
    CornerSpec,
    KernelCompileError,
    compile_kernel,
    kernel_full_run,
)
from repro.sta.required import instance_slacks, required_times
from repro.sta.scheduler import (
    ScenarioResultCache,
    SignoffOutcome,
    SignoffScheduler,
    design_fingerprint,
)
from repro.sta.ssta import (
    SstaRun,
    TuneResult,
    monte_carlo_ssta,
    run_ssta,
    tune_to_yield,
    yield_vs_tuning_range,
)

__all__ = [
    "STA",
    "SCALAR",
    "CanonicalAlgebra",
    "MonteCarloAlgebra",
    "ScalarAlgebra",
    "TimingAlgebra",
    "VariationModel",
    "SstaRun",
    "TuneResult",
    "monte_carlo_ssta",
    "run_ssta",
    "tune_to_yield",
    "yield_vs_tuning_range",
    "ClockSpec",
    "Constraints",
    "Derates",
    "TimingReport",
    "ExtractedTimingModel",
    "extract_etm",
    "IncrementalTimer",
    "ENGINES",
    "CompiledKernel",
    "CornerSpec",
    "KernelCompileError",
    "compile_kernel",
    "kernel_full_run",
    "instance_slacks",
    "required_times",
    "ScenarioResultCache",
    "SignoffOutcome",
    "SignoffScheduler",
    "design_fingerprint",
]
