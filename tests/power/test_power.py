"""Tests for power models."""

import pytest

from repro.beol.corners import conventional_corners
from repro.beol.stack import default_stack
from repro.errors import ReproError
from repro.liberty import LibraryCondition, make_library
from repro.netlist.generators import tiny_design
from repro.parasitics.synthesis import ParasiticExtractor
from repro.power.models import (
    design_power,
    dynamic_power,
    power_area_summary,
)


@pytest.fixture(scope="module")
def lib():
    return make_library()


@pytest.fixture()
def setup(lib):
    d = tiny_design()
    d.bind(lib)
    stack = default_stack()
    extractor = ParasiticExtractor(
        d, lib, stack, conventional_corners(stack)["typ"]
    )
    return d, extractor


class TestDynamicPower:
    def test_positive(self, lib, setup):
        d, ex = setup
        assert dynamic_power(d, lib, ex, period=500.0) > 0.0

    def test_scales_with_frequency(self, lib, setup):
        d, ex = setup
        fast = dynamic_power(d, lib, ex, period=250.0)
        slow = dynamic_power(d, lib, ex, period=500.0)
        assert fast == pytest.approx(2.0 * slow)

    def test_scales_with_voltage_squared(self, lib, setup):
        d, ex = setup
        hi = dynamic_power(d, lib, ex, period=500.0, vdd=1.0)
        lo = dynamic_power(d, lib, ex, period=500.0, vdd=0.5)
        assert hi == pytest.approx(4.0 * lo)

    def test_scales_with_activity(self, lib, setup):
        d, ex = setup
        busy = dynamic_power(d, lib, ex, period=500.0, activity=0.3)
        idle = dynamic_power(d, lib, ex, period=500.0, activity=0.1)
        assert busy == pytest.approx(3.0 * idle)

    def test_bad_period_rejected(self, lib, setup):
        d, ex = setup
        with pytest.raises(ReproError):
            dynamic_power(d, lib, ex, period=0.0)


class TestDesignPower:
    def test_report_components(self, lib, setup):
        d, ex = setup
        report = design_power(d, lib, ex, period=500.0)
        assert report.total == pytest.approx(report.leakage + report.dynamic)
        assert report.leakage > 0.0
        assert "power" in str(report)

    def test_leakage_scales_with_voltage(self, lib, setup):
        d, ex = setup
        hi = design_power(d, lib, ex, period=500.0, vdd=1.0)
        lo = design_power(d, lib, ex, period=500.0, vdd=0.8)
        assert hi.leakage > lo.leakage

    def test_lvt_design_leaks_more(self, setup):
        d, _ = setup
        lvt_lib = make_library(LibraryCondition(), flavors=("lvt",))
        svt_lib = make_library(LibraryCondition(), flavors=("svt",))
        from repro.netlist.generators import tiny_design as td

        d_lvt = td(flavor="lvt")
        d_svt = td(flavor="svt")
        assert d_lvt.total_leakage(lvt_lib) > d_svt.total_leakage(svt_lib)

    def test_hot_library_leaks_more(self):
        cold = make_library(LibraryCondition(temp_c=25.0))
        hot = make_library(LibraryCondition(temp_c=125.0))
        d_cold = tiny_design()
        d_hot = tiny_design()
        assert d_hot.total_leakage(hot) > d_cold.total_leakage(cold)


class TestPowerAreaSummary:
    def test_matches_building_blocks(self, lib, setup):
        d, ex = setup
        summary = power_area_summary(d, lib, period=500.0)
        report = design_power(d, lib, ex, period=500.0)
        assert summary.total_power == pytest.approx(report.total)
        assert summary.power.leakage == pytest.approx(report.leakage)
        assert summary.area == pytest.approx(d.total_area(lib))
        assert summary.cells == len(d.instances)

    def test_unbound_design_ok(self, lib):
        # A campaign worker scores candidates without binding them.
        summary = power_area_summary(tiny_design(), lib, period=500.0)
        assert summary.total_power > 0.0
        assert summary.area > 0.0

    def test_dynamic_scales_with_frequency(self, lib):
        d = tiny_design()
        fast = power_area_summary(d, lib, period=250.0)
        slow = power_area_summary(d, lib, period=500.0)
        assert fast.power.dynamic == pytest.approx(
            2.0 * slow.power.dynamic)
        assert fast.area == pytest.approx(slow.area)

    def test_activity_knob(self, lib):
        d = tiny_design()
        busy = power_area_summary(d, lib, period=500.0, activity=0.3)
        idle = power_area_summary(d, lib, period=500.0, activity=0.1)
        assert busy.power.dynamic == pytest.approx(
            3.0 * idle.power.dynamic)

    def test_render_mentions_components(self, lib):
        text = power_area_summary(tiny_design(), lib, period=500.0).render()
        assert "power" in text and "area" in text

    def test_bad_period_rejected(self, lib):
        with pytest.raises(ReproError):
            power_area_summary(tiny_design(), lib, period=-1.0)
