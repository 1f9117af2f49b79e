"""Statistical signoff: SSTA, yield, and the two goal posts.

Runs deterministic STA, canonical block-based SSTA (with statistical
interconnect), and the old-vs-new goal-post comparison of the paper's
title and footnote 7.

Run with:  python examples/statistical_signoff.py
"""

from repro.beol.stack import default_stack
from repro.core.yieldmodel import (
    design_yield,
    goalpost_sweep,
    minimum_passing_period,
)
from repro.liberty import make_library
from repro.netlist.generators import random_logic
from repro.parasitics.statistical import StatisticalAnnotator
from repro.sta import STA, Constraints
from repro.sta.algebra import VariationModel
from repro.sta.ssta import run_ssta


def main() -> None:
    library = make_library()
    design = random_logic(n_gates=200, n_levels=8, seed=11)

    def make_constraints(period):
        c = Constraints.single_clock(period)
        c.input_delays = {f"in{i}": 60.0 for i in range(32)}
        return c

    print("=== SSTA at a 540 ps clock ===")
    constraints = make_constraints(540.0)
    sta = STA(design, library, constraints)
    sta.report = sta.run()
    annotator = StatisticalAnnotator(sta.parasitics, default_stack())
    # One die-wide source carrying 30% of each arc's sigma.
    ssta = run_ssta(design, library, constraints,
                    model=VariationModel(n_sources=1, rho=0.3),
                    wires=annotator)
    worst = min(ssta.endpoints, key=lambda e: e.mean)
    print(f"worst endpoint {worst.endpoint}:")
    print(f"  deterministic slack : "
          f"{sta.report.slack_of(worst.endpoint, 'setup'):8.2f} ps")
    print(f"  statistical mean    : {worst.mean:8.2f} ps")
    print(f"  sigma (local+global): {worst.sigma:8.2f} ps")
    for n in (1.0, 2.0, 3.0):
        print(f"  slack at {n:.0f} sigma    : "
              f"{worst.mean - n * worst.sigma:8.2f} ps")
    print(f"design parametric yield: {design_yield(ssta):.4f}")

    print("\n=== old vs new goal posts (title / footnote 7) ===")
    comparisons = goalpost_sweep(
        design, library, make_constraints,
        periods=[480.0, 510.0, 540.0, 570.0, 600.0],
    )
    print(f"{'period':>7} {'corner WNS':>11} {'yield':>8} "
          f"{'old':>5} {'new':>5}")
    for c in comparisons:
        print(f"{c.period:7.0f} {c.corner_wns:11.2f} "
              f"{c.yield_estimate:8.4f} "
              f"{'PASS' if c.corner_passes else 'fail':>5} "
              f"{'PASS' if c.yield_passes else 'fail':>5}")
    print(f"old goal post needs {minimum_passing_period(comparisons, 'corner'):.0f} ps; "
          f"new goal post accepts "
          f"{minimum_passing_period(comparisons, 'yield'):.0f} ps")


if __name__ == "__main__":
    main()
