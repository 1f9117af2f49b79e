"""Tests for metal-fill density analysis and timing impact."""

import pytest

from repro.beol.fill import FillEngine, FillPolicy
from repro.errors import CornerError
from repro.liberty import make_library
from repro.netlist.generators import random_logic
from repro.sta import STA, Constraints


@pytest.fixture(scope="module")
def lib():
    return make_library()


def build(lib, policy=None, seed=5):
    design = random_logic(n_gates=150, n_levels=8, seed=seed)
    sta = STA(design, lib, Constraints.single_clock(500.0))
    sta.report = sta.run()
    engine = FillEngine(design, sta.parasitics, sta.stack,
                        policy or FillPolicy())
    return design, sta, engine


class TestPolicy:
    def test_bad_density_rejected(self):
        with pytest.raises(CornerError):
            FillPolicy(min_density=0.0)
        with pytest.raises(CornerError):
            FillPolicy(min_density=1.0)

    def test_bad_tile_rejected(self):
        with pytest.raises(CornerError):
            FillPolicy(tile_um=0.0)


class TestDensity:
    def test_density_map_nonempty(self, lib):
        _, _, engine = build(lib)
        density = engine.density_map()
        assert density
        assert all(d >= 0.0 for d in density.values())

    def test_net_tiles_cover_span(self, lib):
        design, _, engine = build(lib)
        # A multi-fanout net spans at least one tile.
        for net_name, net in design.nets.items():
            if net.fanout >= 2 and net.driver and not net.driver.is_port:
                assert engine.net_tiles(net_name)
                break


class TestInsertFill:
    def test_fill_adds_capacitance(self, lib):
        design, _, engine = build(lib)
        report = engine.insert_fill()
        assert report.tiles_filled > 0
        assert report.nets_affected > 0
        assert report.total_added_cap > 0.0
        assert report.fill_fraction > 0.0

    def test_fill_slows_timing(self, lib):
        design, sta, engine = build(lib)
        wns_before = sta.report.wns("setup")
        engine.insert_fill()
        wns_after = STA(design, lib, sta.constraints).run().wns("setup")
        assert wns_after < wns_before

    def test_clock_exclusion_protects_clock_net(self, lib):
        design, _, engine = build(lib)
        engine.insert_fill()
        assert design.get_net("clk").extra_cap == 0.0

    def test_without_exclusion_clock_gets_fill(self, lib):
        policy = FillPolicy(exclude_clock_nets=False, min_density=0.6)
        design, _, engine = build(lib, policy=policy)
        report = engine.insert_fill()
        # The big clock net crosses many tiles; with no exclusion and a
        # demanding density rule it picks up fill coupling.
        assert design.get_net("clk").extra_cap > 0.0

    def test_exclusion_counted(self, lib):
        design, _, engine = build(lib)
        report = engine.insert_fill()
        assert report.tiles_excluded >= 0

    def test_tighter_rule_fills_more(self, lib):
        d1, _, e1 = build(lib, policy=FillPolicy(min_density=0.1))
        d2, _, e2 = build(lib, policy=FillPolicy(min_density=0.6))
        assert e2.insert_fill().tiles_filled >= e1.insert_fill().tiles_filled
