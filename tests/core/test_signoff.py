"""Tests for the signoff-criteria engine."""

import pytest

from repro.errors import SignoffError
from repro.liberty import LibraryCondition, make_library
from repro.netlist.generators import random_logic
from repro.sta import Constraints
from repro.sta.mcmm import Scenario, ScenarioSet
from repro.core.signoff import SignoffPolicy, evaluate_signoff


@pytest.fixture(scope="module")
def libs():
    return {
        "tt": make_library(LibraryCondition()),
        "ss": make_library(
            LibraryCondition(process="ss", vdd=0.72, temp_c=125.0)
        ),
    }


def scenario_set(libs, period):
    c = Constraints.single_clock(period)
    c.input_delays = {f"in{i}": 60.0 for i in range(16)}
    return ScenarioSet([
        Scenario("tt_typ", libs["tt"], c, beol_corner_name="typ"),
        Scenario("ss_cw", libs["ss"], c, beol_corner_name="cw",
                 temp_c=125.0),
    ])


@pytest.fixture(scope="module")
def design():
    return random_logic(n_inputs=16, n_outputs=16, n_gates=150,
                        n_levels=6, seed=9)


class TestPolicy:
    def test_unknown_style_rejected(self, libs):
        with pytest.raises(SignoffError):
            SignoffPolicy(scenarios=scenario_set(libs, 600.0),
                          setup_style="hope")

    def test_margin_depends_on_style(self, libs):
        sset = scenario_set(libs, 600.0)
        worst = SignoffPolicy(scenarios=sset, setup_style="worst_corner")
        typical = SignoffPolicy(scenarios=sset, setup_style="typical_avs")
        assert typical.setup_margin() < worst.setup_margin()


class TestWorstCornerSignoff:
    def test_relaxed_period_passes(self, libs, design):
        policy = SignoffPolicy(scenarios=scenario_set(libs, 900.0))
        verdict = evaluate_signoff(design, policy)
        assert verdict.passed
        assert verdict.worst_scenario == "ss_cw"

    def test_tight_period_fails(self, libs, design):
        policy = SignoffPolicy(scenarios=scenario_set(libs, 420.0))
        verdict = evaluate_signoff(design, policy)
        assert not verdict.passed

    def test_margin_applied_to_wns(self, libs, design):
        sset = scenario_set(libs, 900.0)
        policy = SignoffPolicy(scenarios=sset)
        verdict = evaluate_signoff(design, policy)
        raw = sset.run(design).merged_wns("setup")
        assert verdict.setup_wns == pytest.approx(
            raw - policy.setup_margin()
        )

    def test_render(self, libs, design):
        policy = SignoffPolicy(scenarios=scenario_set(libs, 900.0))
        text = evaluate_signoff(design, policy).render()
        assert "signoff" in text and "WNS" in text


class TestTypicalAvsSignoff:
    def test_avs_style_recovers_margin(self, libs, design):
        """The 'new goal post': a period that fails worst-corner signoff
        (because of the full flat margin) passes typical+AVS signoff."""
        period = 560.0
        worst = evaluate_signoff(
            design,
            SignoffPolicy(scenarios=scenario_set(libs, period),
                          setup_style="worst_corner"),
        )
        typical = evaluate_signoff(
            design,
            SignoffPolicy(scenarios=scenario_set(libs, period),
                          setup_style="typical_avs", avs_v_max=1.05),
        )
        assert typical.setup_wns > worst.setup_wns
        assert typical.avs_voltage is not None

    def test_avs_verdict_reports_voltage_note(self, libs, design):
        verdict = evaluate_signoff(
            design,
            SignoffPolicy(scenarios=scenario_set(libs, 700.0),
                          setup_style="typical_avs", avs_v_max=1.05),
        )
        assert any("closes at" in n or "cannot close" in n
                   for n in verdict.notes)

    def test_impossible_avs_fails(self, libs, design):
        verdict = evaluate_signoff(
            design,
            SignoffPolicy(scenarios=scenario_set(libs, 300.0),
                          setup_style="typical_avs", avs_v_max=0.85),
        )
        assert not verdict.passed
