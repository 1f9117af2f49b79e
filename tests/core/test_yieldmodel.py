"""Tests for parametric timing yield and the goalpost comparison."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.yieldmodel import (
    design_yield,
    goalpost_sweep,
    minimum_passing_period,
)
from repro.errors import SignoffError, TimingError
from repro.liberty import make_library
from repro.netlist.generators import random_logic
from repro.sta import Constraints
from repro.sta.algebra import VariationModel
from repro.sta.ssta import SstaEndpoint, run_ssta

N_DIES = 4000


@pytest.fixture(scope="module")
def lib():
    return make_library()


@pytest.fixture(scope="module")
def ssta(lib):
    d = random_logic(n_gates=150, n_levels=8, seed=11)
    return run_ssta(d, lib, Constraints.single_clock(540.0),
                    model=VariationModel(n_sources=1, rho=0.3))


def synthetic_result(slacks, seed=0):
    """A stand-in for an SSTA run: setup endpoints only, each sampled as
    ``mean + s_local * z_own + s_global * z_die`` on shared die draws."""
    rng = np.random.default_rng(seed)
    z_die = rng.standard_normal(N_DIES)
    cols, endpoints = [], []
    for i, (mean, s_local, s_global) in enumerate(slacks):
        cols.append(mean + s_local * rng.standard_normal(N_DIES)
                    + s_global * z_die)
        endpoints.append(SstaEndpoint(
            endpoint=f"f{i}/D", kind="setup", mean=mean,
            sigma=float(np.hypot(s_local, s_global)), fail_prob=0.0,
        ))
    return SimpleNamespace(
        setup_slacks=np.column_stack(cols) if cols
        else np.zeros((N_DIES, 0)),
        endpoints=endpoints,
        hold_slacks=np.zeros((N_DIES, 0)),
        hold_endpoints=[],
    )


class TestEndpointProbability:
    """On a one-endpoint run, design yield is that endpoint's pass
    probability."""

    def test_huge_positive_slack_is_certain(self):
        r = synthetic_result([(100.0, 2.0, 1.0)])
        assert design_yield(r) == pytest.approx(1.0)

    def test_huge_negative_slack_is_doomed(self):
        r = synthetic_result([(-100.0, 2.0, 1.0)])
        assert design_yield(r) == pytest.approx(0.0)

    def test_zero_mean_is_coin_flip(self):
        r = synthetic_result([(0.0, 2.0, 0.0)])
        assert design_yield(r) == pytest.approx(0.5, abs=0.01)

    def test_sigma_scale_moves_marginal_endpoint(self):
        r = synthetic_result([(3.0, 2.0, 1.0)])
        assert design_yield(r, sigma_scale=0.5) > \
            design_yield(r, sigma_scale=2.0)


class TestDesignYield:
    def test_empty_result_rejected(self):
        with pytest.raises(SignoffError):
            design_yield(synthetic_result([]))

    def test_yield_below_worst_endpoint(self):
        r = synthetic_result([(3.0, 2.0, 0.0), (50.0, 2.0, 0.0)])
        worst_pass = float((r.setup_slacks[:, 0] >= 0.0).mean())
        assert design_yield(r) <= worst_pass + 1e-9

    def test_correlated_endpoints_yield_higher_than_independent(self):
        """Global correlation helps: endpoints fail together or pass
        together, so total yield exceeds the independent product."""
        correlated = synthetic_result([(4.0, 0.5, 3.0)] * 8)
        independent = synthetic_result([(4.0, 3.04, 0.0)] * 8)
        assert design_yield(correlated) > design_yield(independent)

    def test_real_ssta_yield_in_unit_interval(self, ssta):
        y = design_yield(ssta)
        assert 0.0 <= y <= 1.0

    def test_unit_scale_is_the_run_timing_yield(self, lib):
        d = random_logic(n_gates=150, n_levels=8, seed=11)
        c = Constraints.single_clock(510.0)
        c.input_delays = {f"in{i}": 60.0 for i in range(32)}
        run = run_ssta(d, lib, c, model=VariationModel(n_sources=1,
                                                       rho=0.3))
        assert 0.0 < run.timing_yield() < 1.0
        assert design_yield(run) == run.timing_yield()

    def test_hold_failures_count_against_yield(self, ssta):
        """Every check counts: the unconstrained inputs of this block
        fail hold on every die, so no die passes."""
        setup_only = float((ssta.setup_slacks >= 0.0).all(axis=1).mean())
        assert setup_only > 0.99
        assert min(e.mean for e in ssta.hold_endpoints) < 0.0
        assert design_yield(ssta) == 0.0


class TestGoalpostSweep:
    @pytest.fixture(scope="class")
    def comparisons(self, lib):
        d = random_logic(n_gates=150, n_levels=8, seed=11)

        def mk(period):
            c = Constraints.single_clock(period)
            c.input_delays = {f"in{i}": 60.0 for i in range(32)}
            return c

        return goalpost_sweep(d, lib, mk,
                              [480.0, 510.0, 540.0, 570.0, 600.0])

    def test_yield_monotone_in_period(self, comparisons):
        yields = [c.yield_estimate for c in comparisons]
        assert yields == sorted(yields)

    def test_corner_wns_monotone_in_period(self, comparisons):
        wns = [c.corner_wns for c in comparisons]
        assert wns == sorted(wns)

    def test_yield_goalpost_less_conservative(self, comparisons):
        """The paper's 'new goal post': yield signoff accepts a period at
        or below what corner signoff needs."""
        corner = minimum_passing_period(comparisons, "corner")
        stat = minimum_passing_period(comparisons, "yield")
        assert corner is not None and stat is not None
        assert stat <= corner

    def test_sigma_instability_bands(self, comparisons):
        """In the signoff-relevant regime (yield above 50%, slack means
        positive) larger believed sigma means lower yield. Below 50% the
        direction legitimately reverses (extra spread pushes mass above
        zero), so only the passing side is asserted."""
        for c in comparisons:
            if c.yield_estimate < 0.5:
                continue
            assert c.yield_low_sigma <= c.yield_estimate + 1e-9
            assert c.yield_estimate <= c.yield_high_sigma + 1e-9

    def test_no_passing_period_returns_none(self, comparisons):
        hopeless = [c for c in comparisons if not c.corner_passes]
        assert minimum_passing_period(hopeless, "corner") is None

    def test_global_fraction_outside_unit_interval_rejected(self, lib):
        d = random_logic(n_gates=40, n_levels=4, seed=2)
        with pytest.raises(TimingError, match="rho"):
            goalpost_sweep(d, lib, Constraints.single_clock, [500.0],
                           global_sigma_frac=1.5)
