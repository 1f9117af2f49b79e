"""Tests for the netlist data model."""

import pytest

from repro.errors import NetlistError
from repro.liberty import LibraryCondition, make_library
from repro.netlist.design import Design, PinRef, PortDirection
from repro.netlist.generators import hierarchical_soc, tiny_design


@pytest.fixture(scope="module")
def lib():
    return make_library()


@pytest.fixture()
def tiny(lib):
    d = tiny_design()
    d.bind(lib)
    return d


def net_lists(design):
    """Every net's driver and loads objects, by net name."""
    return {name: (net.driver, net.loads)
            for name, net in design.nets.items()}


def assert_rebind_writes_nothing(design, library):
    before = net_lists(design)
    design.bind(library)
    after = net_lists(design)
    assert list(after) == list(before)
    for name, (driver, loads) in before.items():
        assert after[name][0] is driver, name
        assert after[name][1] is loads, name


class TestPinRef:
    def test_port_ref(self):
        ref = PinRef("", "clk")
        assert ref.is_port
        assert str(ref) == "clk"

    def test_instance_ref(self):
        ref = PinRef("u1", "A")
        assert not ref.is_port
        assert str(ref) == "u1/A"


class TestConstruction:
    def test_duplicate_port_rejected(self):
        d = Design("x")
        d.add_port("a", PortDirection.INPUT)
        with pytest.raises(NetlistError):
            d.add_port("a", PortDirection.INPUT)

    def test_duplicate_instance_rejected(self, lib):
        d = Design("x")
        d.add_instance("u1", "INV_X1_SVT", {"A": "a", "ZN": "z"})
        with pytest.raises(NetlistError):
            d.add_instance("u1", "INV_X1_SVT", {"A": "a", "ZN": "z"})

    def test_input_port_drives_its_net(self):
        d = Design("x")
        d.add_port("a", PortDirection.INPUT)
        assert d.get_net("a").driver == PinRef("", "a")

    def test_output_port_loads_its_net(self):
        d = Design("x")
        d.add_port("z", PortDirection.OUTPUT)
        assert PinRef("", "z") in d.get_net("z").loads


class TestBind:
    def test_bind_assigns_drivers(self, tiny):
        assert tiny.get_net("n1").driver == PinRef("u1", "ZN")

    def test_bind_assigns_loads(self, tiny):
        loads = tiny.get_net("n1").loads
        assert PinRef("u2", "A") in loads

    def test_bind_is_idempotent(self, lib, tiny):
        before = list(tiny.get_net("n1").loads)
        tiny.bind(lib)
        assert tiny.get_net("n1").loads == before
        assert_rebind_writes_nothing(tiny, lib)

        # Every view of a nine-view signoff agrees on pin directions, so
        # rebinding the shared flat design with any of them writes
        # nothing -- what lets parallel scenarios share one design.
        from repro.sta.hier import HierScheduler, build_stub_view
        from repro.sta.mcmm import standard_scenario_set

        hier = hierarchical_soc(seed=2, n_blocks=2)
        views = standard_scenario_set(
            hier.top_constraints(period=900.0),
            lambda process, vdd, temp: make_library(LibraryCondition(
                process=process, vdd=vdd, temp_c=temp)),
        )
        flat = hier.flatten()
        flat.bind(lib)
        for scenario in views.scenarios:
            assert_rebind_writes_nothing(flat, scenario.library)

        # The same holds for the hier pass's stub design and its nine
        # per-view stub libraries.
        outcome = HierScheduler(hier, views.scenarios, jobs=1,
                                executor="serial").signoff()
        stubs = [
            build_stub_view(hier, {b: outcome.etms[(s.name, b)]
                                   for b in hier.blocks},
                            s, views.stack)
            for s in views.scenarios
        ]
        stub_design = stubs[0][0]
        assert len({id(library) for _, library in stubs}) == 9
        for _, stub_library in stubs:
            assert_rebind_writes_nothing(stub_design, stub_library)

    def test_multiple_drivers_rejected(self, lib):
        d = Design("x")
        d.add_instance("u1", "INV_X1_SVT", {"A": "a", "ZN": "z"})
        d.add_instance("u2", "INV_X1_SVT", {"A": "b", "ZN": "z"})
        before = net_lists(d)
        with pytest.raises(NetlistError, match="multiple drivers"):
            d.bind(lib)
        # A bind that raises leaves the design as it was.
        assert net_lists(d) == before

        # Also on a bound design whose edit added a second driver and
        # a net only the edited connections name.
        d = Design("y")
        d.add_port("a", PortDirection.INPUT)
        d.add_instance("u1", "INV_X1_SVT", {"A": "a", "ZN": "z"})
        d.add_instance("u2", "INV_X1_SVT", {"A": "z", "ZN": "y"})
        d.bind(lib)
        before = {name: (driver, list(loads))
                  for name, (driver, loads) in net_lists(d).items()}
        d.instance("u2").connections.update({"A": "fresh", "ZN": "z"})
        with pytest.raises(NetlistError, match="multiple drivers"):
            d.bind(lib)
        assert {name: (driver, list(loads))
                for name, (driver, loads) in net_lists(d).items()} == before

    def test_concurrent_rebinds_never_expose_a_partial_net(self, lib):
        """Threads rebinding one design with agreeing libraries while
        reading it: every read sees the complete driver/load lists."""
        import sys
        import threading

        from repro.netlist.generators import random_logic

        libs = [lib, make_library(LibraryCondition(
            process="ss", vdd=0.72, temp_c=125.0))]
        d = random_logic(n_gates=200, n_levels=6, seed=5)
        d.bind(lib)
        expected = {name: (driver, list(loads))
                    for name, (driver, loads) in net_lists(d).items()}
        mismatches = []

        def rebind_and_read(k):
            for i in range(15):
                d.bind(libs[(k + i) % 2])
                for name, (driver, loads) in expected.items():
                    net = d.nets[name]
                    if net.driver != driver or net.loads != loads:
                        mismatches.append(name)
                        return

        threads = [threading.Thread(target=rebind_and_read, args=(k,))
                   for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_validate_catches_unconnected_pin(self, lib):
        d = Design("x")
        d.add_instance("u1", "NAND2_X1_SVT", {"A": "a", "ZN": "z"})  # B missing
        d.bind(lib)
        with pytest.raises(NetlistError, match="unconnected"):
            d.validate(lib)

    def test_validate_catches_undriven_net(self, lib):
        d = Design("x")
        d.add_instance("u1", "INV_X1_SVT", {"A": "floating", "ZN": "z"})
        d.bind(lib)
        with pytest.raises(NetlistError, match="no driver"):
            d.validate(lib)

    def test_tiny_validates(self, lib, tiny):
        tiny.validate(lib)  # must not raise


class TestQueries:
    def test_missing_instance_raises(self, tiny):
        with pytest.raises(NetlistError):
            tiny.instance("nope")

    def test_missing_net_raises(self, tiny):
        with pytest.raises(NetlistError):
            tiny.get_net("nope")

    def test_ports_by_direction(self, tiny):
        assert set(tiny.input_ports()) == {"clk", "in0", "in1"}
        assert tiny.output_ports() == ["out"]

    def test_sequential_split(self, lib, tiny):
        seq = {i.name for i in tiny.sequential_instances(lib)}
        comb = {i.name for i in tiny.combinational_instances(lib)}
        assert seq == {"ff0", "ff1", "ff2"}
        assert comb == {"u1", "u2"}

    def test_total_area_positive(self, lib, tiny):
        assert tiny.total_area(lib) > 0.0

    def test_total_leakage_positive(self, lib, tiny):
        assert tiny.total_leakage(lib) > 0.0

    def test_hpwl(self, tiny):
        # n1: u1 at (6, 1.4), u2 at (12, 1.4) -> HPWL = 6.
        assert tiny.net_hpwl("n1") == pytest.approx(6.0)

    def test_hpwl_single_pin_zero(self, lib):
        d = Design("x")
        d.add_instance("u1", "INV_X1_SVT", {"A": "a", "ZN": "z"},
                       location=(0.0, 0.0))
        assert d.net_hpwl("z") == 0.0

    def test_unique_name(self, tiny):
        n1 = tiny.unique_name("buf")
        n2 = tiny.unique_name("buf")
        assert n1 != n2

    def test_fanout(self, tiny):
        assert tiny.get_net("clk").fanout == 3

    def test_net_of(self, tiny):
        assert tiny.instance("u1").net_of("ZN") == "n1"
        with pytest.raises(NetlistError):
            tiny.instance("u1").net_of("X")
