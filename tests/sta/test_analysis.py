"""Tests for the STA orchestrator: slacks, paths, derates, reports."""

import math

import pytest

from repro.liberty import make_library
from repro.liberty.aocv import AocvTable
from repro.netlist.design import PinRef
from repro.netlist.generators import random_logic, tiny_design
from repro.sta import STA, Constraints
from repro.sta.propagation import Derates


@pytest.fixture(scope="module")
def lib():
    return make_library()


@pytest.fixture(scope="module")
def tiny_sta(lib):
    sta = STA(tiny_design(), lib, Constraints.single_clock(500.0))
    sta.report = sta.run()
    return sta


class TestSetupAnalysis:
    def test_endpoint_count(self, tiny_sta):
        # 3 flop D pins + 1 output port.
        assert len(tiny_sta.report.setup) == 4

    def test_relaxed_clock_meets_timing(self, tiny_sta):
        flop_eps = [e for e in tiny_sta.report.setup if e.kind == "setup"]
        assert all(e.slack > 0 for e in flop_eps)

    def test_slack_decomposition(self, tiny_sta):
        e = tiny_sta.report.worst("setup")
        assert e.slack == pytest.approx(e.required - e.arrival)

    def test_tight_clock_fails_timing(self, lib):
        sta = STA(tiny_design(), lib, Constraints.single_clock(60.0))
        report = sta.run()
        assert report.wns("setup") < 0.0

    def test_slack_scales_with_period(self, lib):
        r1 = STA(tiny_design(), lib, Constraints.single_clock(400.0)).run()
        r2 = STA(tiny_design(), lib, Constraints.single_clock(500.0)).run()
        e1 = [e for e in r1.setup if e.kind == "setup"][0]
        e2 = [e for e in r2.setup if e.endpoint == e1.endpoint][0]
        assert e2.slack - e1.slack == pytest.approx(100.0, abs=1e-6)

    def test_uncertainty_reduces_slack(self, lib):
        base = Constraints.single_clock(500.0, uncertainty_setup=0.0)
        uncertain = Constraints.single_clock(500.0, uncertainty_setup=30.0)
        s1 = STA(tiny_design(), lib, base).run().wns("setup")
        s2 = STA(tiny_design(), lib, uncertain).run().wns("setup")
        assert s1 - s2 == pytest.approx(30.0, abs=1e-6)

    def test_flat_margin_reduces_slack(self, lib):
        c = Constraints.single_clock(500.0)
        c.flat_setup_margin = 25.0
        base = STA(tiny_design(), lib, Constraints.single_clock(500.0)).run()
        margined = STA(tiny_design(), lib, c).run()
        flop_base = [e for e in base.setup if e.kind == "setup"][0]
        flop_marg = [e for e in margined.setup
                     if e.endpoint == flop_base.endpoint][0]
        assert flop_base.slack - flop_marg.slack == pytest.approx(25.0, abs=1e-6)


class TestHoldAnalysis:
    def test_flop_to_flop_hold_met(self, tiny_sta):
        ff2 = [e for e in tiny_sta.report.hold
               if e.endpoint == PinRef("ff2", "D")]
        assert ff2 and ff2[0].slack > 0.0

    def test_port_fed_flops_fail_hold_without_input_delay(self, tiny_sta):
        """Inputs arriving at t=0 race the clock — classic hold problem."""
        ff0 = [e for e in tiny_sta.report.hold
               if e.endpoint == PinRef("ff0", "D")]
        assert ff0 and ff0[0].slack < 0.0

    def test_input_delay_fixes_port_hold(self, lib):
        c = Constraints.single_clock(500.0)
        c.input_delays = {"in0": 60.0, "in1": 60.0}
        report = STA(tiny_design(), lib, c).run()
        assert report.wns("hold") > 0.0


class TestPathReconstruction:
    def test_worst_path_structure(self, tiny_sta):
        e = [e for e in tiny_sta.report.setup if e.kind == "setup"][0]
        path = tiny_sta.worst_path(e)
        assert path.startpoint == PinRef("", "clk")
        assert path.endpoint == e.endpoint
        assert path.points[-1].arrival == pytest.approx(e.arrival)

    def test_path_arrivals_monotone(self, tiny_sta):
        e = tiny_sta.report.worst("setup")
        path = tiny_sta.worst_path(e)
        arrivals = [p.arrival for p in path.points]
        assert arrivals == sorted(arrivals)

    def test_path_increments_sum_to_arrival(self, tiny_sta):
        e = tiny_sta.report.worst("setup")
        path = tiny_sta.worst_path(e)
        total = path.points[0].arrival + sum(
            p.increment for p in path.points[1:]
        )
        assert total == pytest.approx(path.arrival)

    def test_stage_count_matches_tiny_topology(self, tiny_sta):
        e = [e for e in tiny_sta.report.setup
             if e.endpoint == PinRef("ff2", "D")][0]
        path = tiny_sta.worst_path(e)
        # CK->Q, NAND, INV = 3 cell stages.
        assert path.stage_count == 3

    def test_gate_fraction_between_zero_and_one(self, tiny_sta):
        e = tiny_sta.report.worst("setup")
        frac = tiny_sta.worst_path(e).gate_delay_fraction()
        assert 0.0 < frac <= 1.0

    def test_render_contains_endpoint(self, tiny_sta):
        e = tiny_sta.report.worst("setup")
        assert str(e.endpoint) in tiny_sta.worst_path(e).render()


class TestDerates:
    def test_late_derate_reduces_setup_slack(self, lib):
        plain = STA(tiny_design(), lib, Constraints.single_clock(500.0)).run()
        derated = STA(
            tiny_design(), lib, Constraints.single_clock(500.0),
            derates=Derates(data_late=1.15),
        ).run()
        assert derated.wns("setup") < plain.wns("setup")

    def test_early_derate_reduces_hold_slack(self, lib):
        c = Constraints.single_clock(500.0)
        c.input_delays = {"in0": 60.0, "in1": 60.0}
        plain = STA(tiny_design(), lib, c).run()
        derated = STA(tiny_design(), lib, c,
                      derates=Derates(data_early=0.85)).run()
        ep = PinRef("ff2", "D")
        assert derated.slack_of(ep, "hold") < plain.slack_of(ep, "hold")

    def test_aocv_milder_than_flat_for_deep_paths(self, lib):
        """AOCV's statistical averaging: a deep design derated by AOCV has
        better WNS than the same design under the flat single-stage derate."""
        d = random_logic(n_gates=200, n_levels=10, seed=4)
        aocv = AocvTable.from_reference_sigma(0.05)
        flat_factor = aocv.derate(1.0, 0.0, "late")
        flat = STA(d, lib, Constraints.single_clock(600.0),
                   derates=Derates(data_late=flat_factor)).run()
        staged = STA(d, lib, Constraints.single_clock(600.0),
                     derates=Derates(aocv=aocv)).run()
        assert staged.wns("setup") > flat.wns("setup")


class TestSlewChecks:
    def test_no_violations_on_relaxed_design(self, tiny_sta):
        assert tiny_sta.report.slew_violations == []

    def test_overloaded_driver_flagged(self, lib):
        from repro.netlist.design import Design, PortDirection

        d = Design("overload")
        d.add_port("clk", PortDirection.INPUT)
        d.add_port("din", PortDirection.INPUT)
        d.add_instance("ff", "DFF_X1_SVT", {"D": "din", "CK": "clk", "Q": "q"})
        # A tiny inverter driving a huge fanout.
        d.add_instance("weak", "INV_X0.5_SVT", {"A": "q", "ZN": "big"})
        for i in range(24):
            d.add_instance(f"ld{i}", "INV_X4_SVT",
                           {"A": "big", "ZN": f"z{i}"})
        report = STA(d, lib, Constraints.single_clock(2000.0)).run()
        assert any(v.ref.instance.startswith("ld")
                   for v in report.slew_violations)
        assert all(v.excess > 0 for v in report.slew_violations)


class TestReports:
    def test_summary_text(self, tiny_sta):
        text = tiny_sta.report.summary()
        assert "WNS" in text and "hold" in text

    def test_histogram_text(self, tiny_sta):
        text = tiny_sta.report.slack_histogram("setup", bins=4)
        assert "slack histogram" in text

    def test_table_text(self, tiny_sta):
        assert "endpoint" in tiny_sta.report.table()

    def test_wns_of_empty_mode(self):
        from repro.sta.reports import TimingReport

        assert TimingReport().wns("setup") == math.inf

    def test_bad_mode_raises(self, tiny_sta):
        with pytest.raises(ValueError):
            tiny_sta.report.endpoints("typ")

    def test_slack_of_missing_endpoint(self, tiny_sta):
        with pytest.raises(KeyError):
            tiny_sta.report.slack_of(PinRef("zz", "D"))
