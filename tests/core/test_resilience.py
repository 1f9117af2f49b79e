"""Tests for resilient-design evaluation ([22])."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.resilience import (
    ResilienceConfig,
    best_operating_point,
    cycle_error_probability,
    resilience_curve,
    resilience_gain,
    worst_case_period,
)
from repro.errors import SignoffError
from repro.liberty import make_library
from repro.netlist.generators import random_logic
from repro.sta import Constraints
from repro.sta.algebra import VariationModel
from repro.sta.ssta import run_ssta


@pytest.fixture(scope="module")
def ssta():
    lib = make_library()
    d = random_logic(n_gates=150, n_levels=8, seed=11)
    return run_ssta(d, lib, Constraints.single_clock(520.0),
                    model=VariationModel(n_sources=1, rho=0.3))


BASE = 520.0


class TestErrorProbability:
    def test_empty_rejected(self):
        empty = SimpleNamespace(setup_slacks=np.zeros((16, 0)),
                                endpoints=[])
        with pytest.raises(SignoffError):
            cycle_error_probability(empty, 0.0)

    def test_monotone_in_period(self, ssta):
        """A faster clock (negative shift) makes errors more likely."""
        slow = cycle_error_probability(ssta, +40.0)
        nominal = cycle_error_probability(ssta, 0.0)
        fast = cycle_error_probability(ssta, -40.0)
        assert slow <= nominal <= fast

    def test_bounds(self, ssta):
        for shift in (-100.0, 0.0, 100.0):
            p = cycle_error_probability(ssta, shift)
            assert 0.0 <= p <= 1.0

    def test_counts_failing_endpoints_per_die(self):
        """A die with k failing endpoints errs unless none of the k is
        exercised: P = 1 - (1 - activity)^k, averaged over dies."""
        slacks = np.array([[5.0, 5.0, 5.0],     # k = 0
                           [-1.0, -2.0, 5.0]])  # k = 2
        run = SimpleNamespace(setup_slacks=slacks, endpoints=[None] * 3)
        config = ResilienceConfig(endpoint_activity=0.1)
        expected = 0.5 * (1.0 - 0.9 ** 2)
        assert cycle_error_probability(run, 0.0, config) == \
            pytest.approx(expected)
        # A 1.5 ps slower clock rescues the -1 ps endpoint: k = 1.
        assert cycle_error_probability(run, 1.5, config) == \
            pytest.approx(0.5 * 0.1)

    def test_activity_scales_probability(self, ssta):
        quiet = cycle_error_probability(
            ssta, -20.0, ResilienceConfig(endpoint_activity=0.01)
        )
        busy = cycle_error_probability(
            ssta, -20.0, ResilienceConfig(endpoint_activity=0.5)
        )
        assert busy >= quiet


class TestCurve:
    def test_razor_shape(self, ssta):
        """Throughput rises past worst case, peaks, then collapses as
        replay dominates — the classic resilience curve."""
        t_wc = worst_case_period(ssta, BASE, flat_margin=30.0)
        periods = np.linspace(0.7 * t_wc, 1.05 * t_wc, 30)
        curve = resilience_curve(ssta, BASE, periods)
        best = best_operating_point(curve)
        # The optimum is strictly inside the sweep, faster than worst case.
        assert periods[0] < best.period < t_wc
        # Pushing far past the optimum loses throughput.
        assert curve[0].throughput < best.throughput

    def test_error_free_points_flagged(self, ssta):
        t_wc = worst_case_period(ssta, BASE, flat_margin=30.0)
        curve = resilience_curve(ssta, BASE, [t_wc * 1.02])
        assert curve[0].is_error_free

    def test_energy_grows_with_errors(self, ssta):
        curve = resilience_curve(ssta, BASE, [440.0, 560.0])
        assert curve[0].energy_per_op > curve[1].energy_per_op

    def test_empty_curve_rejected(self):
        with pytest.raises(SignoffError):
            best_operating_point([])


class TestGain:
    def test_resilience_beats_worst_case(self, ssta):
        gain = resilience_gain(ssta, BASE, flat_margin=30.0)
        assert gain["speedup"] > 1.02
        assert gain["resilient_period"] < gain["worst_case_period"]
        # The optimum tolerates only rare errors.
        assert gain["error_probability_at_best"] < 0.05

    def test_more_margin_more_gain(self, ssta):
        little = resilience_gain(ssta, BASE, flat_margin=10.0)
        lots = resilience_gain(ssta, BASE, flat_margin=50.0)
        assert lots["speedup"] > little["speedup"]

    def test_costlier_replay_reduces_gain(self, ssta):
        cheap = resilience_gain(
            ssta, BASE, config=ResilienceConfig(replay_cycles=2.0)
        )
        costly = resilience_gain(
            ssta, BASE, config=ResilienceConfig(replay_cycles=50.0)
        )
        assert costly["speedup"] <= cheap["speedup"] + 1e-9
