"""Tests for clock-tree synthesis, skew analysis and useful skew."""

import pytest

from repro.errors import NetlistError, TimingError
from repro.liberty import make_library
from repro.netlist.generators import random_logic
from repro.sta import STA, Constraints
from repro.cts.skew import clock_skew_report, multi_corner_skew
from repro.cts.tree import synthesize_clock_tree
from repro.cts.useful_skew import (
    SkewStage,
    schedule_useful_skew,
    stages_from_report,
)


@pytest.fixture(scope="module")
def lib():
    return make_library()


@pytest.fixture()
def design(lib):
    d = random_logic(n_gates=150, n_levels=8, seed=5)
    d.bind(lib)
    return d


class TestTreeSynthesis:
    def test_tree_validates(self, lib, design):
        report = synthesize_clock_tree(design, lib)
        design.validate(lib)
        assert report.n_clusters >= 1
        assert report.root_buffer in design.instances

    def test_all_flops_reachable(self, lib, design):
        report = synthesize_clock_tree(design, lib)
        covered = {f for flops in report.clusters.values() for f in flops}
        flops = {i.name for i in design.sequential_instances(lib)}
        assert covered == flops

    def test_clock_net_feeds_only_root(self, lib, design):
        report = synthesize_clock_tree(design, lib)
        loads = design.get_net("clk").loads
        assert len(loads) == 1
        assert loads[0].instance == report.root_buffer

    def test_sta_still_runs_with_tree(self, lib, design):
        synthesize_clock_tree(design, lib)
        sta = STA(design, lib, Constraints.single_clock(500.0))
        report = sta.run()
        assert report.setup

    def test_insertion_delay_positive(self, lib, design):
        synthesize_clock_tree(design, lib)
        sta = STA(design, lib, Constraints.single_clock(500.0))
        sta.run()
        skew = clock_skew_report(sta)
        assert skew.insertion_delay > 20.0  # two buffer levels

    def test_no_flops_raises(self, lib):
        from repro.netlist.design import Design, PortDirection

        d = Design("comb")
        d.add_port("clk", PortDirection.INPUT)
        d.add_port("a", PortDirection.INPUT)
        d.add_instance("u", "INV_X1_SVT", {"A": "a", "ZN": "z"})
        d.bind(lib)
        with pytest.raises(NetlistError):
            synthesize_clock_tree(d, lib)


class TestSkewReport:
    def test_requires_run(self, lib, design):
        sta = STA(design, lib, Constraints.single_clock(500.0))
        with pytest.raises(TimingError):
            clock_skew_report(sta)

    def test_skew_nonnegative(self, lib, design):
        synthesize_clock_tree(design, lib)
        sta = STA(design, lib, Constraints.single_clock(500.0))
        sta.run()
        skew = clock_skew_report(sta)
        assert skew.global_skew >= 0.0
        assert skew.arrivals[skew.latest] >= skew.arrivals[skew.earliest]

    def test_multi_corner_skew_metrics(self, lib, design):
        from repro.liberty import LibraryCondition, make_library as mk

        synthesize_clock_tree(design, lib)
        reports = {}
        for name, libx in (
            ("tt", lib),
            ("ss", mk(LibraryCondition(process="ss", vdd=0.72, temp_c=125.0))),
        ):
            sta = STA(design, libx, Constraints.single_clock(500.0))
            sta.run()
            reports[name] = clock_skew_report(sta)
        merged = multi_corner_skew(reports)
        assert "cross_corner_variation" in merged
        # Clock insertion delay shifts with corner -> positive variation.
        assert merged["cross_corner_variation"] > 0.0

    def test_multi_corner_requires_reports(self):
        with pytest.raises(TimingError):
            multi_corner_skew({})


class TestUsefulSkew:
    def test_steals_slack_from_fast_stage(self):
        stages = [
            SkewStage("a", "b", setup_slack=-20.0, hold_slack=50.0),
            SkewStage("b", "c", setup_slack=60.0, hold_slack=50.0),
        ]
        res = schedule_useful_skew(stages, max_adjust=50.0)
        assert res.predicted_wns > res.baseline_wns
        assert res.offsets["b"] > 0.0

    def test_hold_constraint_limits_skew(self):
        stages = [
            SkewStage("a", "b", setup_slack=-20.0, hold_slack=5.0),
            SkewStage("b", "c", setup_slack=60.0, hold_slack=5.0),
        ]
        res = schedule_useful_skew(stages, max_adjust=50.0)
        # The capture offset cannot exceed the 5 ps hold slack.
        assert res.offsets["b"] - res.offsets["a"] <= 5.0 + 1e-6

    def test_balanced_stages_no_gain(self):
        stages = [
            SkewStage("a", "b", setup_slack=10.0, hold_slack=50.0),
            SkewStage("b", "a", setup_slack=10.0, hold_slack=50.0),
        ]
        res = schedule_useful_skew(stages)
        assert res.improvement == pytest.approx(0.0, abs=1e-6)

    def test_empty_stages_rejected(self):
        with pytest.raises(TimingError):
            schedule_useful_skew([])

    def test_offsets_within_bounds(self):
        stages = [
            SkewStage("a", "b", setup_slack=-100.0, hold_slack=500.0),
            SkewStage("b", "c", setup_slack=200.0, hold_slack=500.0),
        ]
        res = schedule_useful_skew(stages, max_adjust=30.0)
        assert all(0.0 <= v <= 30.0 for v in res.offsets.values())

    def test_end_to_end_improves_sta_wns(self, lib, design):
        """Apply the schedule through Constraints.clock_latency and verify
        the STA WNS actually improves."""
        constraints = Constraints.single_clock(440.0)
        sta = STA(design, lib, constraints)
        report = sta.run()
        stages = stages_from_report(sta, report)
        if not stages:
            pytest.skip("no flop-to-flop stages in this seed")
        res = schedule_useful_skew(stages, max_adjust=40.0)
        constraints.clock_latency.update(res.offsets)
        after = STA(design, lib, constraints).run()
        flop_wns_before = min(
            e.slack for e in report.setup if e.kind == "setup"
        )
        flop_wns_after = min(
            e.slack for e in after.setup if e.kind == "setup"
        )
        assert flop_wns_after >= flop_wns_before - 1e-6
