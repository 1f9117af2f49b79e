"""Tests for backward required times, pin slacks and ETM extraction."""

import math

import pytest

from repro.errors import TimingError
from repro.liberty import make_library
from repro.netlist.design import PinRef
from repro.netlist.generators import (
    hierarchical_soc,
    random_logic,
    tiny_design,
)
from repro.sta import STA, Constraints
from repro.sta.etm import extract_etm, render_etm
from repro.sta.hier import block_constraints
from repro.sta.required import (
    instance_slacks,
    pin_slack,
    required_times,
)
from repro.sta.scheduler import _digest


@pytest.fixture(scope="module")
def lib():
    return make_library()


@pytest.fixture(scope="module")
def sta(lib):
    d = random_logic(n_gates=150, n_levels=8, seed=7)
    sta = STA(d, lib, Constraints.single_clock(500.0))
    sta.report = sta.run()
    return sta


@pytest.fixture(scope="module")
def si_sta(lib):
    """The ``sta`` design with SI on: coupling deltas on the wires."""
    d = random_logic(n_gates=150, n_levels=8, seed=7)
    sta = STA(d, lib, Constraints.single_clock(500.0), si_enabled=True)
    sta.report = sta.run()
    return sta


class TestRequiredTimes:
    def test_requires_run(self, lib):
        fresh = STA(tiny_design(), lib, Constraints.single_clock(500.0))
        with pytest.raises(TimingError):
            required_times(fresh)

    def test_bad_mode_rejected(self, sta):
        with pytest.raises(TimingError):
            required_times(sta, "typ")

    def test_endpoint_pin_slack_matches_report(self, sta):
        """Slack from the backward pass must equal the report's endpoint
        slack at every setup endpoint."""
        req = required_times(sta, "late")
        for e in sta.report.endpoints("setup"):
            if e.kind != "setup":
                continue
            assert pin_slack(sta, req, e.endpoint, "late") == pytest.approx(
                e.slack, abs=0.01
            )

    def test_hold_pin_slack_matches_report(self, sta):
        req = required_times(sta, "early")
        for e in sta.report.endpoints("hold")[:10]:
            assert pin_slack(sta, req, e.endpoint, "early") == pytest.approx(
                e.slack, abs=0.01
            )

    def test_slack_never_increases_downstream_of_worst_path(self, sta,
                                                             si_sta):
        """Every pin on the worst path carries the worst slack, with SI
        off and on: the backward pass crosses each net edge with the
        forward pass's own SI delta."""
        for run in (sta, si_sta):
            worst = run.report.worst("setup")
            req = required_times(run, "late")
            path = run.worst_path(worst)
            for point in path.points:
                if point.ref.is_port:
                    continue
                slack = pin_slack(run, req, point.ref, "late")
                assert slack <= worst.slack + 0.5

    def test_instance_slacks_cover_design(self, sta):
        slacks = instance_slacks(sta, "late")
        assert set(slacks) == set(sta.design.instances)

    def test_instance_slacks_identify_critical_cells(self, sta):
        slacks = instance_slacks(sta, "late")
        worst = sta.report.worst("setup")
        path = sta.worst_path(worst)
        for point in path.points:
            if point.kind == "cell" and not point.ref.is_port:
                assert slacks[point.ref.instance] == pytest.approx(
                    worst.slack, abs=0.5
                )


class TestEtm:
    @pytest.fixture(scope="class")
    def etm(self, sta):
        return extract_etm(sta)

    def test_ports_extracted(self, sta, etm):
        data_inputs = [p for p in sta.design.input_ports() if p != "clk"]
        assert set(etm.input_ports()) == set(data_inputs)
        assert set(etm.output_ports()) == set(sta.design.output_ports())

    def test_input_caps_positive(self, etm):
        for port in etm.input_ports():
            assert etm.ports[port].input_cap > 0.0

    def test_setup_budget_matches_flat_analysis(self, sta, lib, etm):
        """Shifting one port's top-level arrival must shift the flat slack
        of port-fed endpoints exactly as the ETM predicts."""
        port = etm.input_ports()[0]
        budget = etm.ports[port].setup_budget
        # Flat run with that port delayed by (budget - 10): the worst
        # endpoint fed by the port should sit at ~10 ps slack.
        c = Constraints.single_clock(500.0)
        c.input_delays = {port: budget - 10.0}
        flat = STA(sta.design, lib, c).run()
        etm_slack = etm.setup_slack_for_arrival(port, budget - 10.0)
        assert etm_slack == pytest.approx(10.0, abs=0.01)
        # The flat WNS cannot be better than the ETM prediction, and when
        # the port path dominates it matches.
        port_endpoints = [
            e.slack for e in flat.endpoints("setup")
        ]
        assert min(port_endpoints) <= etm_slack + 0.5

    def test_check_merges_internal_and_boundary(self, etm):
        arrivals = {p: 0.0 for p in etm.input_ports()}
        merged = etm.check(arrivals)
        assert merged <= etm.internal_wns + 1e-9

    def test_excessive_arrival_fails_check(self, etm):
        port = etm.input_ports()[0]
        budget = etm.ports[port].setup_budget
        assert etm.setup_slack_for_arrival(port, budget + 5.0) < 0.0

    def test_unknown_port_rejected(self, etm):
        with pytest.raises(TimingError):
            etm.setup_slack_for_arrival("nope", 0.0)

    def test_extraction_requires_zero_input_delays(self, lib):
        d = tiny_design()
        c = Constraints.single_clock(500.0)
        c.input_delays = {"in0": 20.0}
        sta = STA(d, lib, c)
        sta.report = sta.run()
        with pytest.raises(TimingError, match="zero input delays"):
            extract_etm(sta)

    def test_clock_to_out_positive(self, etm):
        for port in etm.output_ports():
            assert etm.ports[port].clock_to_out > 0.0

    def test_render(self, etm):
        text = render_etm(etm)
        assert "ETM for block" in text
        assert "setup budget" in text

    def test_extracted_etm_digests_are_pinned(self, lib):
        """An ETM's content digest keys the ETM cache: a block with
        16 budget tables and a feedthrough block, pinned to the digests
        recorded before the check and edge-delay formulas were shared."""
        hier = hierarchical_soc(seed=1, n_blocks=3)
        top = hier.top_constraints(period=700.0)
        pinned = {
            "b1": "e420436868b76ba4d039ed5dfb832d26"
                  "01706398f51d1d542afeed410eab6319",
            "ft": "cfef6b56cf7b380fbd5db4d63e81c91a"
                  "2bde04f79499832d88627f42381ded3d",
        }
        for name, digest in pinned.items():
            block = hier.blocks[name]
            sta = STA(block.design, lib, block_constraints(
                top, top.clocks[f"clk_{name}"], block.clock_port))
            sta.run()
            assert _digest(extract_etm(sta)) == digest


class TestMiniaIntegrationWithSlacks:
    def test_instance_slacks_feed_minia_guard(self, lib):
        """End-to-end: the required-time engine supplies the MinIA fixer's
        timing guard."""
        import random

        from repro.netlist.transforms import swap_vt
        from repro.place.minia import fix_minia_violations
        from repro.place.rows import Placement

        d = random_logic(n_gates=150, n_levels=8, seed=2)
        d.bind(lib)
        rng = random.Random(2)
        for name in list(d.instances):
            inst = d.instances[name]
            if not lib.cell(inst.cell_name).is_sequential and \
                    rng.random() < 0.3:
                swap_vt(d, lib, name, rng.choice(["lvt", "hvt"]))
        sta = STA(d, lib, Constraints.single_clock(500.0))
        sta.report = sta.run()
        slacks = instance_slacks(sta, "late")
        placement = Placement.from_design(d, lib)
        placement.abut_all()
        report = fix_minia_violations(
            d, lib, placement,
            slack_of=lambda name: slacks.get(name, math.inf),
            slack_guard=10.0,
        )
        assert report.fix_rate >= 0.8


class TestEtmFlatAgreementProperties:
    """Property tests: ETM boundary predictions vs actual flat analysis.

    The required-time backward pass is independent of input arrivals, so
    shifting one port's input delay must move the flat per-pin slack at
    that port by exactly the shift — which is precisely what the ETM
    budget arithmetic predicts. These are exact equalities, not bounds.
    """

    @pytest.mark.parametrize("seed", [3, 11])
    def test_hold_slack_for_arrival_matches_flat_exactly(self, lib, seed):
        d = random_logic("hb", n_gates=120, n_levels=6, seed=seed)
        base = STA(d, lib, Constraints.single_clock(500.0))
        base.run()
        etm = extract_etm(base)
        port = etm.input_ports()[0]
        arrival = etm.ports[port].hold_budget + 7.0
        c = Constraints.single_clock(500.0)
        c.input_delays = {port: arrival}
        shifted = STA(d, lib, c)
        shifted.run()
        req = required_times(shifted, "early")
        flat = pin_slack(shifted, req, PinRef("", port), "early")
        assert flat == pytest.approx(
            etm.hold_slack_for_arrival(port, arrival), abs=1e-9)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_setup_slack_for_arrival_matches_flat_exactly(self, lib, seed):
        d = random_logic("sb", n_gates=120, n_levels=6, seed=seed)
        base = STA(d, lib, Constraints.single_clock(500.0))
        base.run()
        etm = extract_etm(base)
        port = etm.input_ports()[0]
        arrival = etm.ports[port].setup_budget - 13.0
        c = Constraints.single_clock(500.0)
        c.input_delays = {port: arrival}
        shifted = STA(d, lib, c)
        shifted.run()
        req = required_times(shifted, "late")
        flat = pin_slack(shifted, req, PinRef("", port), "late")
        assert flat == pytest.approx(
            etm.setup_slack_for_arrival(port, arrival), abs=1e-9)

    def test_feedthroughs_classified_and_match_flat(self, lib):
        """Output arcs split correctly: clock-launched paths become
        clock->out, port-launched paths become feedthroughs whose delay
        is the flat in->out arrival."""
        from repro.netlist.hierarchy import feedthrough_block

        d = feedthrough_block(channels=2)
        sta = STA(d, lib, Constraints.single_clock(600.0))
        sta.run()
        etm = extract_etm(sta)
        assert set(etm.feedthrough_ports()) == {"ft_out0", "ft_out1"}
        assert etm.ports["ft_out0"].feedthrough_from == "ft_in0"
        assert "d_out" in etm.output_ports()
        assert "d_out" not in etm.feedthrough_ports()
        assert etm.ports["d_out"].clock_to_out is not None
        for i in range(2):
            out = PinRef("", f"ft_out{i}")
            flat_arr = max(
                sta.prop.at(out, dd).late
                for dd in ("rise", "fall") if sta.prop.has(out, dd)
            )
            assert etm.ports[f"ft_out{i}"].feedthrough_delay == \
                pytest.approx(flat_arr, abs=1e-9)
        # the registered path is measured from the clock edge instead:
        # its clock->out delay is far below the full-period feedthrough
        # budget frame of reference.
        assert etm.ports["d_out"].clock_to_out < 600.0

    def test_run_retains_report(self, lib):
        sta = STA(tiny_design(), lib, Constraints.single_clock(500.0))
        report = sta.run()
        assert sta.report is report

    def test_extract_etm_reuses_retained_report(self, lib, monkeypatch):
        """The extractor bug this PR fixes: extract_etm used to re-run a
        full STA because run() never stored its report."""
        calls = []
        original = STA.run

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(STA, "run", counting)
        sta = STA(random_logic(n_gates=60, n_levels=4, seed=9), lib,
                  Constraints.single_clock(500.0))
        sta.run()
        assert len(calls) == 1
        extract_etm(sta)
        assert len(calls) == 1
