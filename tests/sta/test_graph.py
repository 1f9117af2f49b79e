"""Tests for timing-graph construction and levelization."""

import pytest

from repro.errors import TimingError
from repro.liberty import make_library
from repro.netlist.design import Design, PinRef, PortDirection
from repro.netlist.generators import random_logic, tiny_design
from repro.sta.constraints import Constraints
from repro.sta.graph import NetEdge, TimingGraph


@pytest.fixture(scope="module")
def lib():
    return make_library()


@pytest.fixture()
def tiny_graph(lib):
    d = tiny_design()
    d.bind(lib)
    return TimingGraph(d, lib, Constraints.single_clock(500.0))


class TestConstruction:
    def test_stats(self, tiny_graph):
        stats = tiny_graph.stats()
        assert stats["checks"] == 6  # 3 flops x (setup + hold)
        assert stats["cell_edges"] == 3 + 3  # nand(2 arcs)+inv + 3 CK->Q
        assert stats["pins"] > 10

    def test_setup_and_hold_checks_split(self, tiny_graph):
        assert len(tiny_graph.setup_checks()) == 3
        assert len(tiny_graph.hold_checks()) == 3

    def test_checks_reference_data_and_clock_pins(self, tiny_graph):
        check = tiny_graph.setup_checks()[0]
        assert check.data_pin.pin == "D"
        assert check.clock_pin.pin == "CK"

    def test_clock_network_marked(self, tiny_graph):
        assert PinRef("", "clk") in tiny_graph.clock_pins
        assert PinRef("ff0", "CK") in tiny_graph.clock_pins
        assert PinRef("u1", "A") not in tiny_graph.clock_pins

    def test_missing_clock_port_raises(self, lib):
        d = tiny_design()
        d.bind(lib)
        with pytest.raises(TimingError, match="unknown port"):
            TimingGraph(d, lib, Constraints.single_clock(500.0, port="nope"))

    def test_topological_order_respects_edges(self, tiny_graph):
        order = {ref: i for i, ref in enumerate(tiny_graph.topo_order)}
        for src, edges in tiny_graph.out_edges.items():
            for edge in edges:
                dst = edge.sink if isinstance(edge, NetEdge) else edge.dst
                assert order[src] < order[dst]

    def test_combinational_loop_detected(self, lib):
        d = Design("loop")
        d.add_port("clk", PortDirection.INPUT)
        d.add_instance("u1", "INV_X1_SVT", {"A": "b", "ZN": "a"})
        d.add_instance("u2", "INV_X1_SVT", {"A": "a", "ZN": "b"})
        d.bind(lib)
        with pytest.raises(TimingError, match="loop"):
            TimingGraph(d, lib, Constraints.single_clock(500.0))

    def test_clock_stops_at_data_gates(self, lib):
        """A clock feeding a NAND does not propagate clockness through."""
        d = tiny_design()
        d.add_instance("uc", "NAND2_X1_SVT",
                       {"A": "clk", "B": "q0", "ZN": "gated"})
        d.bind(lib)
        g = TimingGraph(d, lib, Constraints.single_clock(500.0))
        assert PinRef("uc", "A") in g.clock_pins
        assert PinRef("uc", "ZN") not in g.clock_pins

    def test_clock_propagates_through_buffers(self, lib):
        d = Design("ctree")
        d.add_port("clk", PortDirection.INPUT)
        d.add_port("din", PortDirection.INPUT)
        d.add_port("dout", PortDirection.OUTPUT)
        d.add_instance("cb", "BUF_X4_SVT", {"A": "clk", "Z": "clki"})
        d.add_instance("ff", "DFF_X1_SVT",
                       {"D": "din", "CK": "clki", "Q": "dout"})
        d.bind(lib)
        g = TimingGraph(d, lib, Constraints.single_clock(500.0))
        assert PinRef("cb", "Z") in g.clock_pins
        assert PinRef("ff", "CK") in g.clock_pins


class TestDepths:
    def test_stage_depth_monotone_along_path(self, tiny_graph):
        d = tiny_graph.data_depth
        assert d[PinRef("u1", "ZN")] < d[PinRef("u2", "ZN")]

    def test_startpoints_have_zero_depth(self, tiny_graph):
        for ref in tiny_graph.startpoints():
            assert tiny_graph.data_depth[ref] == 0

    def test_larger_design_scales(self, lib):
        d = random_logic(n_gates=150, n_levels=8, seed=2)
        d.bind(lib)
        g = TimingGraph(d, lib, Constraints.single_clock(500.0))
        assert max(g.data_depth.values()) >= 8
