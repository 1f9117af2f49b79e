"""Tests for the Fig 1 closure loop and the fix engines."""

import pytest

from repro.errors import ClosureError
from repro.liberty import make_library
from repro.netlist.generators import random_logic, tiny_design
from repro.sta import STA, Constraints
from repro.core.closure import ClosureConfig, ClosureEngine
from repro.core.fixes import FIX_ENGINES, FixContext


@pytest.fixture(scope="module")
def lib():
    return make_library()


def constrained_design(period=520.0, seed=3, n_gates=300):
    d = random_logic(n_gates=n_gates, n_levels=10, seed=seed)
    c = Constraints.single_clock(period)
    c.input_delays = {f"in{i}": 60.0 for i in range(32)}
    return d, c


class TestConfig:
    def test_unknown_fix_rejected(self):
        with pytest.raises(ClosureError, match="unknown fix engines"):
            ClosureConfig(fix_order=("vt_swap", "magic"))

    def test_default_order_valid(self):
        config = ClosureConfig()
        assert all(f in FIX_ENGINES for f in config.fix_order)


class TestClosureLoop:
    @pytest.fixture(scope="class")
    def result(self, lib):
        d, c = constrained_design()
        engine = ClosureEngine(d, lib, c)
        return engine.run(ClosureConfig(max_iterations=10, budget_per_fix=24))

    def test_converges(self, result):
        assert result.converged
        assert result.final_wns >= 0.0

    def test_timing_improves_over_iterations(self, result):
        """Fig 1's expectation: top-level timing improves per iteration
        (we allow one-step noise but require strict overall progress and
        a mostly-monotone trajectory)."""
        wns = result.trajectory("wns_setup")
        assert wns[-1] > wns[0]
        improvements = sum(1 for a, b in zip(wns, wns[1:]) if b > a)
        assert improvements >= (len(wns) - 1) * 0.7

    def test_no_hold_or_slew_damage(self, result):
        assert not result.final.violations("hold")
        assert not result.final.slew_violations

    def test_schedule_accounting(self, result):
        assert result.schedule_days == pytest.approx(
            len(result.iterations) * 3.0
        )

    def test_edits_recorded(self, result):
        kinds = set()
        for rec in result.iterations:
            kinds |= set(rec.edits)
        assert "vt_swap" in kinds
        assert "sizing" in kinds

    def test_render(self, result):
        text = result.render()
        assert "WNS" in text and "converged" in text

    def test_clean_design_stops_immediately(self, lib):
        d = tiny_design()
        c = Constraints.single_clock(800.0)
        c.input_delays = {"in0": 60.0, "in1": 60.0}
        result = ClosureEngine(d, lib, c).run()
        assert result.converged
        assert len(result.iterations) == 1
        assert result.iterations[0].total_edits == 0

    def test_impossible_target_stops_on_budget(self, lib):
        d, c = constrained_design(period=150.0, n_gates=150)
        result = ClosureEngine(d, lib, c).run(
            ClosureConfig(max_iterations=3, budget_per_fix=8)
        )
        assert not result.converged
        assert len(result.iterations) <= 3


class TestFixEngines:
    @pytest.fixture()
    def ctx(self, lib):
        d, c = constrained_design(n_gates=200)
        sta = STA(d, lib, c)
        sta.report = sta.run()
        return FixContext(design=d, library=lib, sta=sta, report=sta.report,
                          budget=10)

    def test_vt_swap_produces_edits(self, ctx):
        edits = FIX_ENGINES["vt_swap"](ctx)
        assert edits
        assert all(e.kind == "swap" for e in edits)

    def test_vt_swap_makes_cells_faster(self, ctx, lib):
        before = ctx.report.wns("setup")
        FIX_ENGINES["vt_swap"](ctx)
        after = STA(ctx.design, lib, ctx.sta.constraints).run().wns("setup")
        assert after > before

    def test_sizing_produces_edits(self, ctx):
        assert FIX_ENGINES["sizing"](ctx)

    def test_budget_respected(self, ctx):
        ctx.budget = 3
        assert len(FIX_ENGINES["vt_swap"](ctx)) <= 3
        ctx.touched.clear()
        assert len(FIX_ENGINES["sizing"](ctx)) <= 3

    def test_dont_touch_respected(self, ctx):
        for inst in ctx.design.instances.values():
            inst.dont_touch = True
        assert FIX_ENGINES["vt_swap"](ctx) == []
        assert FIX_ENGINES["sizing"](ctx) == []

    def test_buffering_skips_clock_nets(self, ctx):
        edits = FIX_ENGINES["buffering"](ctx)
        assert "clk" not in {e.target for e in edits}

    def test_useful_skew_updates_constraints(self, ctx):
        edits = FIX_ENGINES["useful_skew"](ctx)
        if edits:  # LP may find no profitable skew on some seeds
            assert ctx.sta.constraints.clock_latency

    def test_area_recovery_downsizes(self, lib):
        d, c = constrained_design(period=2000.0, n_gates=150)  # relaxed
        sta = STA(d, lib, c)
        sta.report = sta.run()
        ctx = FixContext(design=d, library=lib, sta=sta, report=sta.report,
                         budget=10)
        area_before = d.total_area(lib)
        edits = FIX_ENGINES["area_recovery"](ctx)
        assert edits
        assert d.total_area(lib) < area_before


class TestIncrementalTiming:
    """The tentpole: cone-limited retiming inside the closure loop."""

    def test_bad_timing_mode_rejected(self):
        with pytest.raises(ClosureError, match="unknown timing mode"):
            ClosureConfig(timing="magic")

    def test_modes_produce_identical_results(self, lib):
        configs = {}
        for mode in ("incremental", "full"):
            d, c = constrained_design()
            engine = ClosureEngine(d, lib, c)
            configs[mode] = engine.run(
                ClosureConfig(max_iterations=6, budget_per_fix=12,
                              timing=mode)
            )
        inc, full = configs["incremental"], configs["full"]
        assert inc.trajectory() == full.trajectory()
        assert inc.trajectory("tns_setup") == full.trajectory("tns_setup")
        assert inc.final_wns == full.final_wns
        assert inc.final.tns("setup") == full.final.tns("setup")
        assert inc.converged == full.converged

    def test_incremental_run_is_instrumented(self, lib):
        d, c = constrained_design()
        engine = ClosureEngine(d, lib, c)
        result = engine.run(
            ClosureConfig(max_iterations=6, budget_per_fix=12)
        )
        # The default-order loop serves its swap stages cone-limited.
        assert result.incremental_retimes > 0
        assert 0.0 < result.reuse_ratio <= 1.0
        assert result.pin_count > 0
        assert 0.0 < result.mean_cone_fraction < 1.0
        assert result.timing_wall_s > 0.0
        cone_recs = [r for r in result.iterations
                     if r.incremental_retimes]
        assert cone_recs
        for rec in cone_recs:
            assert 0 < rec.cone_size
            assert 0.0 < rec.cone_fraction < 1.0
            assert rec.retime_engine in ("incremental", "mixed")
        rendered = result.render()
        assert "retime" in rendered
        assert "cone" in rendered
        assert "timing:" in rendered
        assert "reuse" in rendered

    def test_full_mode_only_rebuilds(self, lib):
        d, c = constrained_design()
        engine = ClosureEngine(d, lib, c)
        result = engine.run(
            ClosureConfig(max_iterations=4, budget_per_fix=12,
                          timing="full")
        )
        assert result.incremental_retimes == 0
        assert result.reuse_ratio == 0.0
        engines_seen = {r.retime_engine for r in result.iterations}
        assert engines_seen <= {"rebuild", ""}

    def test_warm_timer_reused_across_iterations(self, lib):
        d, c = constrained_design()
        engine = ClosureEngine(d, lib, c)
        result = engine.run(
            ClosureConfig(max_iterations=6, budget_per_fix=12)
        )
        pool = engine.timer_pool
        # One scenario, one registered timer, warm the whole run.
        assert pool.names() == [lib.name]
        timer = pool.get(lib.name)
        assert timer.incremental_updates == result.incremental_retimes
        # The first pass built it through the pool; no pass rebuilt it.
        assert pool.builds == 1
