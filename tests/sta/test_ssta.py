"""Statistical STA: canonical moments gated against the Monte-Carlo
sample-vector oracle, yield and criticality invariants, and post-silicon
clock-buffer tuning on the PST benchmark block."""

import pytest

from repro.beol.stack import default_stack
from repro.errors import TimingError
from repro.liberty import LibraryCondition, make_library
from repro.netlist.generators import random_logic
from repro.parasitics.statistical import StatisticalAnnotator
from repro.sta import STA, Constraints
from repro.sta.algebra import (
    CanonicalAlgebra,
    MonteCarloAlgebra,
    VariationModel,
)
from repro.sta.mcmm import Scenario
from repro.sta.ssta import (
    McResult,
    SstaRun,
    monte_carlo_ssta,
    pst_benchmark_setup,
    run_ssta,
    tune_to_yield,
    yield_vs_tuning_range,
)


def make_setup(seed, n_gates=140, period=700.0):
    design = random_logic(name=f"ssta{seed}", n_inputs=10, n_outputs=10,
                          n_gates=n_gates, n_levels=7, seed=seed)
    return design, make_library(), Constraints.single_clock(period)


@pytest.fixture(scope="module")
def bench():
    """The PST benchmark block plus its canonical run (shared — the
    sampling pass is the expensive part)."""
    design, lib, cons = pst_benchmark_setup(seed=9, n_gates=160)
    run = run_ssta(design, lib, cons, n_samples=4000)
    return design, lib, cons, run


class TestMcValidation:
    """Acceptance gate: canonical endpoint moments within 5% of a
    >=2000-sample Monte-Carlo on randomized LVF designs."""

    @pytest.mark.parametrize("seed,view", [
        pytest.param(3, "typ", id="3"),
        pytest.param(11, "typ", id="11"),
        pytest.param(3, "wires", id="3-wires"),
        pytest.param(3, "ss-cw-125c", id="3-ss-cw-125c"),
    ])
    def test_moments_within_five_percent(self, seed, view):
        model = VariationModel()
        if view == "ss-cw-125c":
            # A scenario off the default view (BEOL corner and
            # temperature), both algebras built through Scenario.sta.
            # At 1000 ps the slack means sit well away from zero.
            design, _, cons = make_setup(seed, period=1000.0)
            scenario = Scenario(
                "ss_cw", make_library(LibraryCondition(
                    process="ss", vdd=0.72, temp_c=125.0)),
                cons, beol_corner_name="cw", temp_c=125.0)
            stack = default_stack()
            sta = scenario.sta(design, stack,
                               algebra=CanonicalAlgebra(design, model))
            sta.run()
            run = SstaRun(sta, model, n_samples=512)
            mc_sta = scenario.sta(design, stack, algebra=MonteCarloAlgebra(
                design, model, n_samples=2000))
            mc_sta.run()
            mc = McResult.from_sta(mc_sta)
        else:
            design, lib, cons = make_setup(seed)
            wires = None
            if view == "wires":
                # Stretch the placement so wires carry real delay and
                # their BEOL sigma is a visible share of each
                # endpoint's sigma.
                for inst in design.instances.values():
                    if inst.location is not None:
                        inst.location = (inst.location[0] * 25.0,
                                         inst.location[1])
                wires = StatisticalAnnotator(
                    STA(design, lib, cons).parasitics, default_stack())
            run = run_ssta(design, lib, cons, model=model, n_samples=512,
                           wires=wires)
            mc = monte_carlo_ssta(design, lib, cons, model=model,
                                  n_samples=2000, wires=wires)
        assert len(mc.setup_moments) == len(run.endpoints)
        for ep in run.endpoints:
            mc_mean, mc_sigma = mc.setup_moments[str(ep.endpoint)]
            # Slack means sit far from zero, so normalize the mean
            # deviation by the larger of |mean| and sigma.
            denom = max(abs(mc_mean), mc_sigma, 1e-9)
            assert abs(ep.mean - mc_mean) / denom < 0.05, str(ep.endpoint)
            if mc_sigma > 0.5:  # below that, both are ~deterministic
                assert abs(ep.sigma - mc_sigma) / mc_sigma < 0.05, \
                    str(ep.endpoint)

    def test_mc_and_canonical_yield_agree(self):
        design, lib, cons = make_setup(5, period=560.0)
        model = VariationModel()
        run = run_ssta(design, lib, cons, model=model, n_samples=4000)
        mc = monte_carlo_ssta(design, lib, cons, model=model,
                              n_samples=2000)
        assert run.timing_yield() == pytest.approx(mc.timing_yield,
                                                   abs=0.05)


class TestSstaRun:
    def test_requires_lvf(self):
        from repro.liberty.lvf import strip_lvf

        design, lib, cons = make_setup(2, n_gates=40)
        assert strip_lvf(lib) > 0
        with pytest.raises(TimingError, match="LVF"):
            run_ssta(design, lib, cons)

    def test_requires_canonical_algebra(self):
        design, lib, cons = make_setup(2, n_gates=40)
        sta = STA(design, lib, cons)
        sta.run()
        with pytest.raises(TimingError, match="Canonical"):
            SstaRun(sta, VariationModel())

    def test_criticalities_sum_to_one(self, bench):
        _, _, _, run = bench
        total = sum(ep.criticality for ep in run.endpoints)
        assert total == pytest.approx(1.0, abs=1e-6)
        assert all(ep.criticality >= 0.0 for ep in run.endpoints)
        by_inst = run.instance_criticality()
        assert by_inst
        assert all(c >= 0.0 for c in by_inst.values())

    def test_yield_monotone_in_period(self, bench):
        _, _, _, run = bench
        curve = run.yield_vs_period([-40.0, 0.0, 40.0, 120.0])
        ys = [y for _, y in curve]
        assert ys == sorted(ys)
        assert 0.0 <= min(ys) and max(ys) <= 1.0
        assert run.timing_yield(run.period) == run.timing_yield()

    def test_render_reports_distributions(self, bench):
        _, _, _, run = bench
        text = run.render(limit=5)
        assert "sigma" in text
        assert "yield" in text


class TestPstTuning:
    def test_tuning_recovers_yield(self, bench):
        """The headline acceptance: tuned-vs-untuned yield delta > 0 and
        the default target reached on the PST benchmark block."""
        _, _, _, run = bench
        tuned = tune_to_yield(run, target_yield=0.99, tune_range=40.0)
        assert tuned.yield_gain > 0.0
        assert tuned.achieved
        assert tuned.selected  # buffers actually inserted
        assert len(tuned.steps) == len(tuned.selected)
        assert "target met" in tuned.render()

    def test_zero_range_changes_nothing(self, bench):
        _, _, _, run = bench
        untuned = tune_to_yield(run, target_yield=0.99, tune_range=0.0)
        assert untuned.tuned_yield == untuned.baseline_yield

    def test_budget_caps_insertions(self, bench):
        _, _, _, run = bench
        capped = tune_to_yield(run, target_yield=1.0, tune_range=40.0,
                               max_buffers=3)
        assert len(capped.selected) <= 3

    def test_yield_vs_tuning_range_is_monotone(self, bench):
        """The PST recovery curve: a wider tuning range never hurts."""
        _, _, _, run = bench
        results = yield_vs_tuning_range(run, [0.0, 15.0, 40.0],
                                        target_yield=0.999)
        ys = [r.tuned_yield for r in results]
        assert ys == sorted(ys)
        assert ys[-1] > ys[0]  # the recovery story, in one assertion
