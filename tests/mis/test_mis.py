"""Tests for MIS analysis and the hold derate model."""

import pytest

from repro.errors import TimingError
from repro.liberty import make_library
from repro.mis.analysis import Fig4Row, fig4_study, mis_window_probability
from repro.mis.derate import (
    MisDerateModel,
    mis_hold_adjustments,
)
from repro.netlist.generators import random_logic
from repro.sta import STA, Constraints


class TestWindowProbability:
    def test_simultaneous_is_one(self):
        assert mis_window_probability(10.0, 10.0, 30.0) == 1.0

    def test_outside_window_zero(self):
        assert mis_window_probability(0.0, 50.0, 30.0) == 0.0

    def test_linear_in_between(self):
        assert mis_window_probability(0.0, 15.0, 30.0) == pytest.approx(0.5)

    def test_zero_window(self):
        assert mis_window_probability(0.0, 0.0, 0.0) == 0.0


class TestFig4Study:
    """One reduced-size end-to-end run of the Fig 4 experiment (slow)."""

    @pytest.fixture(scope="class")
    def rows(self):
        return fig4_study(voltages=[0.8], offsets=[-10.0, 0.0, 10.0], dt=0.5)

    def test_rows_cover_both_directions(self, rows):
        assert {r.input_direction for r in rows} == {"rise", "fall"}

    def test_falling_input_is_hold_critical(self, rows):
        fall = next(r for r in rows if r.input_direction == "fall")
        assert fall.hold_critical
        assert fall.ratio < 0.7  # paper: below ~50%, we allow slack

    def test_rising_input_slows_down(self, rows):
        rise = next(r for r in rows if r.input_direction == "rise")
        assert rise.ratio > 1.0


class TestDerateModel:
    def test_conservative_bounds(self):
        model = MisDerateModel.conservative()
        assert model.factor("nand2", 2) == pytest.approx(0.5)
        assert model.factor("nor3", 3) == pytest.approx(1.0 / 3.0)

    def test_single_input_no_derate(self):
        assert MisDerateModel.conservative().factor("inv", 1) == 1.0

    def test_unknown_multi_input_family_bounded(self):
        model = MisDerateModel()
        assert model.factor("aoi21", 3) == pytest.approx(1.0 / 3.0)

    def test_non_switching_family_unity(self):
        assert MisDerateModel().factor("buf", 1) == 1.0

    def test_from_fig4_rows(self):
        rows = [
            Fig4Row(0.8, "fall", sis_delay=20.0, mis_delay=8.0, study=None),
            Fig4Row(0.8, "rise", sis_delay=20.0, mis_delay=22.0, study=None),
        ]
        model = MisDerateModel.from_fig4_rows(rows)
        assert model.factor("nand2", 2) == pytest.approx(0.4)

    def test_from_rows_requires_hold_critical(self):
        rows = [
            Fig4Row(0.8, "rise", sis_delay=20.0, mis_delay=22.0, study=None)
        ]
        with pytest.raises(TimingError):
            MisDerateModel.from_fig4_rows(rows)


class TestHoldAdjustment:
    @pytest.fixture(scope="class")
    def sta(self):
        lib = make_library()
        d = random_logic(n_gates=150, n_levels=6, seed=21)
        sta = STA(d, lib, Constraints.single_clock(500.0))
        sta.report = sta.run()
        return sta

    def test_adjustments_never_increase_slack(self, sta):
        for adj in mis_hold_adjustments(sta, sta.report, limit=20):
            assert adj.adjusted_slack <= adj.original_slack + 1e-9

    def test_some_endpoints_affected(self, sta):
        adjs = mis_hold_adjustments(sta, sta.report, limit=40,
                                    overlap_window=60.0)
        assert any(a.susceptible_stages > 0 for a in adjs)
        assert any(a.delta > 0.0 for a in adjs)

    def test_zero_window_disables(self, sta):
        adjs = mis_hold_adjustments(sta, sta.report, limit=20,
                                    overlap_window=0.0)
        assert all(a.delta == 0.0 for a in adjs)
