"""Tests for path-based analysis, CPPR and SI delta delays."""

import pytest

from repro.liberty import make_library
from repro.netlist.design import Design, PinRef, PortDirection
from repro.netlist.generators import (
    hierarchical_soc,
    random_logic,
    tiny_design,
)
from repro.sta import STA, Constraints
from repro.sta.cppr import (
    clock_path_pins,
    cppr_credit,
    endpoint_cppr_credit,
    launch_clock_pin,
)
from repro.sta.pba import analyze_endpoint, enumerate_paths, gba_vs_pba
from repro.sta.propagation import Derates
from repro.sta.si import coupling_deltas, total_si_impact


@pytest.fixture(scope="module")
def lib():
    return make_library()


@pytest.fixture(scope="module")
def rand_sta(lib):
    d = random_logic(n_gates=200, n_levels=8, seed=11)
    sta = STA(d, lib, Constraints.single_clock(500.0))
    sta.report = sta.run()
    return sta


def shared_buffer_design():
    """clk -> shared buffer -> two flops, back-to-back data path."""
    d = Design("shared_clk")
    d.add_port("clk", PortDirection.INPUT)
    d.add_port("din", PortDirection.INPUT)
    d.add_port("dout", PortDirection.OUTPUT)
    d.add_instance("cb1", "BUF_X4_SVT", {"A": "clk", "Z": "c1"},
                   location=(0.0, 0.0))
    d.add_instance("cb2", "BUF_X4_SVT", {"A": "c1", "Z": "c2"},
                   location=(5.0, 0.0))
    d.add_instance("ffa", "DFF_X1_SVT",
                   {"D": "din", "CK": "c2", "Q": "q1"}, location=(10.0, 0.0))
    d.add_instance("u1", "INV_X1_SVT", {"A": "q1", "ZN": "n1"},
                   location=(15.0, 0.0))
    d.add_instance("ffb", "DFF_X1_SVT",
                   {"D": "n1", "CK": "c2", "Q": "dout"}, location=(20.0, 0.0))
    return d


class TestPathEnumeration:
    def test_paths_reach_startpoints(self, rand_sta):
        e = rand_sta.report.worst("setup")
        paths = list(enumerate_paths(rand_sta, e.endpoint, e.data_direction,
                                     max_paths=8))
        assert paths
        for p in paths:
            first_edge, src_dir, _ = p[0]
            src = getattr(first_edge, "driver", None) or first_edge.src
            assert not rand_sta.graph.in_edges.get(src)

    def test_max_paths_respected(self, rand_sta):
        e = rand_sta.report.worst("setup")
        paths = list(enumerate_paths(rand_sta, e.endpoint, e.data_direction,
                                     max_paths=5))
        assert len(paths) <= 5

    def test_paths_distinct(self, rand_sta):
        e = rand_sta.report.worst("setup")
        paths = list(enumerate_paths(rand_sta, e.endpoint, e.data_direction,
                                     max_paths=16))
        signatures = {
            tuple((id(edge), sd, dd) for edge, sd, dd in p) for p in paths
        }
        assert len(signatures) == len(paths)


class TestPba:
    def test_pba_never_worse_than_gba(self, rand_sta):
        for r in gba_vs_pba(rand_sta, rand_sta.report, n_endpoints=8,
                            max_paths=16):
            assert r.pba_slack >= r.gba_slack - 1e-9

    def test_pba_recovers_pessimism_somewhere(self, rand_sta):
        results = gba_vs_pba(rand_sta, rand_sta.report, n_endpoints=10,
                             max_paths=32)
        assert any(r.pessimism_recovered > 0.01 for r in results)

    def test_pba_counts_paths(self, rand_sta):
        e = rand_sta.report.worst("setup")
        r = analyze_endpoint(rand_sta, e, max_paths=8)
        assert 1 <= r.paths_analyzed <= 8

    def test_hold_endpoints_rejected(self, rand_sta):
        from repro.errors import TimingError

        hold_ep = rand_sta.report.worst("hold")
        with pytest.raises(TimingError):
            analyze_endpoint(rand_sta, hold_ep)


class TestPbaUsesGbaEdgeTerms:
    """PBA re-propagates with the GBA run's own wire and SI delays,
    useful-skew latencies and capture clocks, so only the slews differ:
    whatever moves GBA slack moves PBA slack alike."""

    def test_si_recovers_the_same_pessimism(self, lib):
        recovered = {}
        for si in (False, True):
            sta = STA(random_logic(n_gates=200, n_levels=8, seed=5), lib,
                      Constraints.single_clock(400.0), si_enabled=si)
            recovered[si] = {r.endpoint: r.pessimism_recovered
                             for r in gba_vs_pba(sta, sta.run())}
        common = set(recovered[False]) & set(recovered[True])
        assert len(common) >= 5
        for endpoint in common:
            assert recovered[True][endpoint] == pytest.approx(
                recovered[False][endpoint], abs=1e-9)

    @pytest.mark.parametrize("flop", ["ff_in2", "ff_out1"])
    def test_clock_latency_recovers_the_same_pessimism(self, lib, flop):
        """+20 ps latency on the launching or the capturing flop."""
        endpoint = PinRef("ff_out1", "D")
        recovered = []
        for latency in ({}, {flop: 20.0}):
            constraints = Constraints.single_clock(400.0)
            constraints.clock_latency = latency
            sta = STA(random_logic(n_gates=120, n_levels=6, seed=3), lib,
                      constraints)
            record = next(e for e in sta.run().endpoints("setup")
                          if e.endpoint == endpoint)
            recovered.append(
                analyze_endpoint(sta, record).pessimism_recovered)
        assert recovered[0] > 1.0
        assert recovered[1] == pytest.approx(recovered[0], abs=1e-9)

    def test_multi_clock_design(self, lib):
        """Each check is PBA'd against its own capture clock."""
        soc = hierarchical_soc(seed=1, n_blocks=2, block_gates=40)
        sta = STA(soc.flatten(), lib, soc.top_constraints(period=900.0))
        assert len(sta.constraints.clocks) > 1
        rows = gba_vs_pba(sta, sta.run())
        assert rows
        for row in rows:
            assert row.pba_slack >= row.gba_slack


class TestCppr:
    @pytest.fixture()
    def derated_sta(self, lib):
        sta = STA(
            shared_buffer_design(), lib, Constraints.single_clock(500.0),
            derates=Derates(clock_late=1.10, clock_early=0.90),
        )
        sta.report = sta.run()
        return sta

    def test_clock_path_pins(self, derated_sta):
        pins = clock_path_pins(derated_sta, PinRef("ffb", "CK"))
        names = [str(p) for p in pins]
        assert names[0] == "clk"
        assert "cb1/Z" in names and "cb2/Z" in names

    def test_launch_clock_pin_found(self, derated_sta):
        e = [e for e in derated_sta.report.setup
             if e.endpoint == PinRef("ffb", "D")][0]
        assert launch_clock_pin(derated_sta, e) == PinRef("ffa", "CK")

    def test_shared_tree_gives_positive_credit(self, derated_sta):
        credit = cppr_credit(derated_sta, PinRef("ffa", "CK"),
                             PinRef("ffb", "CK"))
        assert credit > 0.0

    def test_endpoint_credit_positive(self, derated_sta):
        e = [e for e in derated_sta.report.setup
             if e.endpoint == PinRef("ffb", "D")][0]
        assert endpoint_cppr_credit(derated_sta, e) > 0.0

    def test_no_derate_no_credit(self, lib):
        sta = STA(shared_buffer_design(), lib, Constraints.single_clock(500.0))
        sta.report = sta.run()
        credit = cppr_credit(sta, PinRef("ffa", "CK"), PinRef("ffb", "CK"))
        assert credit == pytest.approx(0.0, abs=1e-9)

    def test_output_endpoint_credit_zero(self, derated_sta):
        out_ep = [e for e in derated_sta.report.setup if e.kind == "output"][0]
        assert endpoint_cppr_credit(derated_sta, out_ep) == 0.0


class TestSi:
    def test_deltas_positive(self, lib):
        d = tiny_design()
        sta = STA(d, lib, Constraints.single_clock(500.0))
        deltas = coupling_deltas(sta.graph, sta.parasitics)
        assert deltas
        assert all(v > 0 for v in deltas.values())

    def test_si_worsens_setup(self, lib):
        d = random_logic(n_gates=100, n_levels=6, seed=9)
        plain = STA(d, lib, Constraints.single_clock(500.0)).run()
        noisy = STA(d, lib, Constraints.single_clock(500.0),
                    si_enabled=True).run()
        assert noisy.wns("setup") < plain.wns("setup")

    def test_si_worsens_hold(self, lib):
        c = Constraints.single_clock(500.0)
        c.input_delays = {"in0": 60.0, "in1": 60.0}
        plain = STA(tiny_design(), lib, c).run()
        noisy = STA(tiny_design(), lib, c, si_enabled=True).run()
        ep = PinRef("ff2", "D")
        assert noisy.slack_of(ep, "hold") <= plain.slack_of(ep, "hold")

    def test_total_impact(self, lib):
        d = tiny_design()
        sta = STA(d, lib, Constraints.single_clock(500.0))
        deltas = coupling_deltas(sta.graph, sta.parasitics)
        assert total_si_impact(deltas) == pytest.approx(sum(deltas.values()))

    def test_ndr_reduces_si_delta(self, lib):
        from repro.netlist.transforms import set_ndr

        d1 = tiny_design()
        sta1 = STA(d1, lib, Constraints.single_clock(500.0))
        base = coupling_deltas(sta1.graph, sta1.parasitics)["n1"]
        d2 = tiny_design()
        set_ndr(d2, "n1")
        sta2 = STA(d2, lib, Constraints.single_clock(500.0))
        shielded = coupling_deltas(sta2.graph, sta2.parasitics)["n1"]
        assert shielded < base
