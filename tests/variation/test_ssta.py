"""SSTA under process and interconnect variation, on the canonical
engine: Clark's max over canonical forms, endpoint slack distributions
against path Monte Carlo, and statistical interconnect (SSPEF)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beol.stack import default_stack
from repro.errors import TimingError
from repro.liberty import make_library
from repro.netlist.generators import random_logic
from repro.parasitics.statistical import (
    RcSigmas,
    StatisticalAnnotator,
    layer_rc_sigmas,
    parse_statistical_spef,
    write_statistical_spef,
)
from repro.sta import STA, Constraints
from repro.sta.algebra import CanonicalAlgebra, CanonicalForm, VariationModel
from repro.sta.ssta import SstaRun, run_ssta
from repro.variation.montecarlo import mc_path_delays

#: One die-wide source carrying 30% of each arc's sigma, the rest private.
ONE_SOURCE = VariationModel(n_sources=1, rho=0.3)

#: Canonical max over a die-wide coordinate (0) and two private ones.
ALG = CanonicalAlgebra(None, VariationModel(n_sources=1, n_private=2))


def form(mean, sigma_local=0.0, sigma_global=0.0, slot=1):
    """A canonical arrival: ``sigma_local`` on private ``slot``,
    ``sigma_global`` on the shared die-wide coordinate."""
    coeffs = np.zeros(ALG.model.dim)
    coeffs[0] = sigma_global
    coeffs[slot] = sigma_local
    return CanonicalForm(mean, coeffs)


@pytest.fixture(scope="module")
def sta():
    lib = make_library()
    d = random_logic(n_gates=200, n_levels=8, seed=11)
    sta = STA(d, lib, Constraints.single_clock(500.0))
    sta.report = sta.run()
    return sta


def ssta_of(sta, model=ONE_SOURCE, wires=None):
    return run_ssta(sta.design, sta.library, sta.constraints, model=model,
                    wires=wires)


@pytest.fixture(scope="module")
def ssta_result(sta):
    return ssta_of(sta)


def by_name(run):
    return {str(e.endpoint): e for e in run.endpoints}


class TestClarkMax:
    def test_dominant_input_wins(self):
        m = ALG.max(form(100.0, 1.0, slot=1), form(0.0, 1.0, slot=2))
        assert m.mean == pytest.approx(100.0, abs=0.01)
        assert m.sigma() == pytest.approx(1.0, abs=0.01)

    def test_equal_inputs_mean_exceeds_both(self):
        """E[max of two equal iid Gaussians] = mu + sigma/sqrt(pi)."""
        m = ALG.max(form(10.0, 2.0, slot=1), form(10.0, 2.0, slot=2))
        assert m.mean == pytest.approx(10.0 + 2.0 / math.sqrt(math.pi),
                                       rel=1e-3)

    @given(
        mu_a=st.floats(-50, 50), mu_b=st.floats(-50, 50),
        s_a=st.floats(0.1, 10), s_b=st.floats(0.1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_max_mean_at_least_both_means(self, mu_a, mu_b, s_a, s_b):
        m = ALG.max(form(mu_a, s_a, slot=1), form(mu_b, s_b, slot=2))
        assert m.mean >= max(mu_a, mu_b) - 1e-9

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(3)
        xa = rng.normal(10.0, 3.0, 200000)
        xb = rng.normal(12.0, 2.0, 200000)
        mc = np.maximum(xa, xb)
        m = ALG.max(form(10.0, 3.0, slot=1), form(12.0, 2.0, slot=2))
        assert m.mean == pytest.approx(float(mc.mean()), rel=0.01)
        assert m.sigma() == pytest.approx(float(mc.std()), rel=0.03)


class TestVariationModel:
    @pytest.mark.parametrize("fields", [
        {"rho": 1.5}, {"rho": -0.1}, {"rho": float("nan")},
        {"n_sources": 0}, {"n_private": 0},
    ])
    def test_out_of_range_decomposition_rejected(self, fields):
        with pytest.raises(TimingError):
            VariationModel(**fields)

    @pytest.mark.parametrize("rho", [0.0, 1.0])
    def test_unit_interval_ends_accepted(self, rho):
        assert VariationModel(rho=rho).rho == rho


class TestRunSsta:
    def test_requires_deterministic_run(self):
        """Sampling reads slacks from a completed engine run."""
        lib = make_library()
        d = random_logic(n_gates=60, n_levels=4, seed=2)
        fresh = STA(d, lib, Constraints.single_clock(500.0),
                    algebra=CanonicalAlgebra(d, ONE_SOURCE))
        with pytest.raises(TimingError, match="run"):
            SstaRun(fresh, ONE_SOURCE)

    def test_endpoint_sigmas_positive(self, ssta_result):
        """Every endpoint whose worst path crosses a cell varies; a flop
        fed straight from an input port is exactly deterministic."""
        varying = 0
        for e, result in zip(ssta_result.endpoints,
                             ssta_result.setup_results):
            stages = ssta_result.sta.worst_path(result).stage_count
            assert (e.sigma > 0.0) == (stages > 0), str(e.endpoint)
            varying += stages > 0
        assert varying

    def test_statistical_mean_at_most_det_arrival_plus_bias(self, sta,
                                                            ssta_result):
        """SSTA slack mean tracks deterministic slack within the Clark
        max bias (statistical max >= max of means). Zero-sigma
        endpoints are skipped: there both engines agree exactly."""
        det = {str(e.endpoint): e.slack
               for e in sta.report.endpoints("setup")}
        checked = 0
        for e in ssta_result.endpoints:
            if e.sigma < 0.1:
                continue
            assert e.mean <= det[str(e.endpoint)] + 1e-6
            checked += 1
        assert checked

    def test_sigma_matches_path_mc(self, sta, ssta_result):
        """On the worst endpoint the SSTA sigma must match Monte Carlo
        over the dominant path (single dominant path => Clark is exact).

        The engine lifts late arrivals with the late LVF sigma; the path
        MC draws fast excursions with the smaller early sigma, which
        never moves a setup check. So the comparison is with the path's
        slow-side spread: its 84th percentile minus its median.
        """
        e = [x for x in sta.report.endpoints("setup") if x.kind == "setup"][0]
        dist = by_name(ssta_result)[str(e.endpoint)]
        path = sta.worst_path(e)
        samples = mc_path_delays(sta, path, n_samples=4000, seed=1,
                                 global_sigma_frac=ONE_SOURCE.rho)
        slow_side = np.quantile(samples, 0.8413) - np.median(samples)
        assert dist.sigma == pytest.approx(float(slow_side), rel=0.15)

    def test_yield_aware_slack_below_mean(self, ssta_result):
        """The slack read at a 3-sigma confidence tail of an endpoint's
        sampled distribution sits below its mean."""
        i = max(range(len(ssta_result.endpoints)),
                key=lambda k: ssta_result.endpoints[k].sigma)
        tail = np.quantile(ssta_result.setup_slacks[:, i], 0.00135)
        assert tail < ssta_result.endpoints[i].mean

    def test_wns_at_sigma_monotone_in_confidence(self, ssta_result):
        """The chip's worst slack, read at a deeper confidence tail of
        its sampled distribution, is lower."""
        worst = ssta_result.setup_slacks.min(axis=1)
        assert np.quantile(worst, 0.00135) < np.quantile(worst, 0.1587)

    def test_global_fraction_shifts_decomposition(self, sta):
        local = ssta_of(sta, VariationModel(n_sources=1, rho=0.0))
        mixed = ssta_of(sta, VariationModel(n_sources=1, rho=0.8))
        ep = max(local.setup_results, key=lambda e: e.slack.sigma()
                 if isinstance(e.slack, CanonicalForm) else 0.0)
        twin = next(e for e in mixed.setup_results
                    if e.endpoint == ep.endpoint)
        assert ep.slack.coeffs[0] == 0.0
        assert abs(twin.slack.coeffs[0]) > 0.0


class TestStatisticalInterconnect:
    @pytest.fixture(scope="class")
    def annotator(self, sta):
        return StatisticalAnnotator(sta.parasitics, default_stack())

    def test_sadp_layer_noisier_than_single(self):
        stack = default_stack()
        sadp = layer_rc_sigmas(stack.layer("M2"))
        single = layer_rc_sigmas(stack.layer("M6"))
        assert sadp.wire_delay_rel > single.wire_delay_rel

    def test_wire_sigma_positive(self, sta, annotator):
        sigmas = annotator.all_wire_sigmas()
        assert sigmas
        assert all(v >= 0.0 for v in sigmas.values())

    def test_ssta_with_wires_widens_sigma(self, sta, ssta_result, annotator):
        wired = by_name(ssta_of(sta, wires=annotator))
        widened = 0
        for e in ssta_result.endpoints:
            assert wired[str(e.endpoint)].sigma >= e.sigma
            widened += wired[str(e.endpoint)].sigma > e.sigma
        assert widened

    def test_sspef_round_trip(self, sta, annotator):
        text = write_statistical_spef("rand", annotator)
        parsed = parse_statistical_spef(text)
        assert parsed
        some_net = next(iter(parsed))
        assert parsed[some_net].r_rel == pytest.approx(
            annotator.net_sigmas(some_net).r_rel
        )

    def test_sspef_malformed_rejected(self):
        from repro.errors import CornerError

        with pytest.raises(CornerError):
            parse_statistical_spef("*X_NET n 1 2\n")

    def test_rc_sigma_delay_combination(self):
        s = RcSigmas(r_rel=0.03, c_rel=0.04)
        assert s.wire_delay_rel == pytest.approx(0.05)
