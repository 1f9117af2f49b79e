"""Hierarchical signoff: multi-clock engine, ETM-vs-flat agreement,
process fan-out, caching and degradation."""

import os

import pytest

from repro.errors import ConstraintError, TimingError
from repro.liberty import make_library
from repro.netlist.design import Design, PortDirection
from repro.netlist.generators import hierarchical_soc, random_logic
from repro.netlist.hierarchy import HierarchicalDesign, with_boundary_anchors
from repro.obs import tracing as obs_tracing
from repro.runtime.supervisor import RetryPolicy
from repro.sta import STA, Constraints
from repro.sta.constraints import ClockSpec
from repro.sta.hier import (
    HierScheduler,
    block_constraints,
    compare_hier_vs_flat,
)
from repro.sta.mcmm import Scenario
from repro.sta.scheduler import ScenarioResultCache


@pytest.fixture(scope="module")
def lib():
    return make_library()


class TestMultiClockEngine:
    def test_capture_clock_resolved_per_domain(self, lib):
        """With per-block clocks, shrinking one domain's period must
        shift exactly that domain's setup slacks, by exactly the
        period delta."""
        hier = hierarchical_soc(seed=3, n_blocks=2, with_feedthrough=False)
        flat = hier.flatten()
        base = STA(flat, lib, hier.top_constraints(period=800.0)).run()
        skewed = STA(flat, lib, hier.top_constraints(
            period=800.0, periods={"b1": 640.0})).run()
        checked = {"b0": 0, "b1": 0}
        for e in base.endpoints("setup"):
            if e.kind != "setup":
                continue
            block = e.endpoint.instance.split("_", 1)[0]
            shifted = skewed.slack_of(e.endpoint, "setup")
            expected = e.slack - (160.0 if block == "b1" else 0.0)
            assert shifted == pytest.approx(expected, abs=1e-6)
            checked[block] += 1
        assert checked["b0"] > 0 and checked["b1"] > 0

    def test_three_domain_capture_resolution(self, lib):
        """Three clock domains, each with its own period: every setup
        endpoint must capture against its *own* domain's clock, so
        shifting two domains by different deltas moves exactly those
        domains' slacks by exactly their delta — and a re-run restoring
        one period undoes only that domain's shift."""
        hier = hierarchical_soc(seed=3, n_blocks=3, with_feedthrough=False)
        flat = hier.flatten()
        base = STA(flat, lib, hier.top_constraints(period=800.0)).run()
        deltas = {"b0": 0.0, "b1": 160.0, "b2": 240.0}
        skewed = STA(flat, lib, hier.top_constraints(
            period=800.0,
            periods={"b1": 800.0 - deltas["b1"],
                     "b2": 800.0 - deltas["b2"]})).run()
        half = STA(flat, lib, hier.top_constraints(
            period=800.0, periods={"b2": 800.0 - deltas["b2"]})).run()
        checked = {"b0": 0, "b1": 0, "b2": 0}
        for e in base.endpoints("setup"):
            if e.kind != "setup":
                continue
            block = e.endpoint.instance.split("_", 1)[0]
            assert skewed.slack_of(e.endpoint, "setup") == pytest.approx(
                e.slack - deltas[block], abs=1e-6)
            assert half.slack_of(e.endpoint, "setup") == pytest.approx(
                e.slack - (deltas["b2"] if block == "b2" else 0.0),
                abs=1e-6)
            checked[block] += 1
        assert all(count > 0 for count in checked.values())
        # Hold checks are same-cycle: immune to every period change.
        for e in base.endpoints("hold"):
            assert skewed.slack_of(e.endpoint, "hold") == pytest.approx(
                e.slack, abs=1e-6)

    def test_primary_clock_selection(self):
        a = ClockSpec(name="a", period=500.0, port="a")
        b = ClockSpec(name="b", period=600.0, port="b")
        cons = Constraints(clocks={"b": b, "a": a})
        assert cons.primary_clock().name == "a"
        clk = ClockSpec(name="clk", period=700.0)
        cons = Constraints(clocks={"b": b, "clk": clk, "a": a})
        assert cons.primary_clock().name == "clk"
        with pytest.raises(ConstraintError):
            Constraints().primary_clock()

    def test_the_clock_still_rejects_multi_clock(self):
        a = ClockSpec(name="a", period=500.0, port="a")
        b = ClockSpec(name="b", period=600.0, port="b")
        with pytest.raises(ConstraintError):
            Constraints(clocks={"a": a, "b": b}).the_clock()


class TestBlockConstraints:
    def test_rerooted_clock_and_inherited_margins(self):
        top = Constraints(
            clocks={"clk_b0": ClockSpec(name="clk_b0", period=750.0,
                                        port="clk_b0",
                                        uncertainty_setup=17.0)},
            flat_setup_margin=9.0,
            default_input_slew=31.0,
        )
        bc = block_constraints(top, top.clocks["clk_b0"], "clk")
        spec = bc.the_clock()
        assert spec.port == "clk"
        assert spec.period == 750.0
        assert spec.uncertainty_setup == 17.0
        assert bc.flat_setup_margin == 9.0
        assert bc.default_input_slew == 31.0
        assert bc.input_delays == {}


class TestAgreement:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_boundary_slacks_match_flat_within_1ps(self, lib, seed):
        """The acceptance gate: on randomized hierarchical SoCs, every
        boundary endpoint's hier slack is within 1 ps of flat."""
        hier = hierarchical_soc(seed=seed, n_blocks=3)
        cons = hier.top_constraints(period=900.0)
        scen = Scenario(name="tt", library=lib, constraints=cons)
        report = compare_hier_vs_flat(hier, [scen], jobs=2,
                                      executor="thread")
        assert report.rows
        assert not report.degraded
        assert report.max_divergence <= 1.0
        assert report.ok
        kinds = {r.kind for r in report.rows}
        assert kinds == {"setup", "hold", "output"}

    def test_agreement_with_per_block_periods(self, lib):
        hier = hierarchical_soc(seed=5, n_blocks=3)
        periods = {name: 800.0 + 60.0 * i
                   for i, name in enumerate(hier.blocks)}
        cons = hier.top_constraints(period=900.0, periods=periods)
        scen = Scenario(name="mc", library=lib, constraints=cons)
        report = compare_hier_vs_flat(hier, [scen], jobs=2,
                                      executor="thread")
        assert report.ok
        assert report.max_divergence <= 1.0

    def test_agreement_across_library_corners(self, lib):
        from repro.liberty import LibraryCondition

        hier = hierarchical_soc(seed=2, n_blocks=2)
        cons = hier.top_constraints(period=1100.0)
        slow = make_library(LibraryCondition(process="ss", vdd=0.72,
                                             temp_c=125.0))
        scens = [
            Scenario(name="tt", library=lib, constraints=cons),
            Scenario(name="ss", library=slow, constraints=cons,
                     beol_corner_name="cw"),
        ]
        report = compare_hier_vs_flat(hier, scens, jobs=2,
                                      executor="thread")
        assert report.ok
        assert {r.scenario for r in report.rows} == {"tt", "ss"}

    def test_render_reports_bound_and_speed(self, lib):
        hier = hierarchical_soc(seed=1, n_blocks=2)
        scen = Scenario(name="tt", library=lib,
                        constraints=hier.top_constraints(period=900.0))
        report = compare_hier_vs_flat(hier, [scen], executor="thread")
        text = report.render()
        assert "max divergence" in text
        assert "bound 1.000" in text
        assert "OK" in text


class TestProcessFanout:
    def test_extractions_cross_process_boundaries(self, lib):
        """Acceptance: per-block extraction fans across >= 2 worker
        processes, proven by the pids of the ingested etm_extract
        spans."""
        hier = hierarchical_soc(seed=2, n_blocks=4)
        scen = Scenario(name="tt", library=lib,
                        constraints=hier.top_constraints(period=900.0))
        tracer = obs_tracing.Tracer()
        with obs_tracing.use(tracer):
            outcome = HierScheduler(hier, [scen], jobs=2,
                                    executor="process").signoff()
        assert outcome.ok
        pids = {s.pid for s in tracer.spans() if s.name == "etm_extract"}
        assert len(pids) >= 2
        assert os.getpid() not in pids

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_tracing_does_not_change_the_table(self, lib, executor):
        hier = hierarchical_soc(seed=2, n_blocks=2)
        scen = Scenario(name="tt", library=lib,
                        constraints=hier.top_constraints(period=900.0))

        def table(tracer):
            with obs_tracing.use(tracer):
                return HierScheduler(hier, [scen], jobs=2,
                                     executor=executor).signoff().render()

        tracer = obs_tracing.Tracer()
        assert table(tracer) == table(None)
        assert any(s.name == "etm_extract" for s in tracer.spans())

    def test_exactly_one_sta_run_span_per_extraction(self, lib):
        """Acceptance: no second full STA hides inside an extraction."""
        hier = hierarchical_soc(seed=1, n_blocks=2)
        scen = Scenario(name="tt", library=lib,
                        constraints=hier.top_constraints(period=900.0))
        tracer = obs_tracing.Tracer()
        with obs_tracing.use(tracer):
            outcome = HierScheduler(hier, [scen], jobs=2,
                                    executor="thread").signoff()
        extracts = [s for s in tracer.spans() if s.name == "etm_extract"]
        extract_ids = {s.span_id for s in extracts}
        runs = [s for s in tracer.spans()
                if s.name == "sta_run" and s.parent_id in extract_ids]
        assert len(extracts) == outcome.etm_computed > 0
        assert len(runs) == len(extracts)
        # Fingerprint hashing is booked to its own phase, not to the
        # hier_signoff root's self time.
        root = next(s for s in tracer.spans() if s.name == "hier_signoff")
        plans = [s for s in tracer.spans() if s.name == "etm_plan"]
        assert [s.parent_id for s in plans] == [root.span_id]

    def test_extraction_runs_one_sta_each(self, lib, monkeypatch):
        """Call-count proof of the extractor fix: N extractions plus one
        top-level pass run exactly N + 1 full STAs."""
        calls = []
        original = STA.run

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(STA, "run", counting)
        hier = hierarchical_soc(seed=1, n_blocks=2, with_feedthrough=False)
        scen = Scenario(name="tt", library=lib,
                        constraints=hier.top_constraints(period=900.0))
        outcome = HierScheduler(hier, [scen], jobs=1,
                                executor="serial").signoff()
        assert outcome.ok
        assert outcome.etm_computed == len(hier.blocks)
        assert len(calls) == outcome.etm_computed + 1


class TestCachingAndDegradation:
    def test_warm_cache_skips_extraction(self, lib):
        hier = hierarchical_soc(seed=1, n_blocks=2)
        scen = Scenario(name="tt", library=lib,
                        constraints=hier.top_constraints(period=900.0))
        cache = ScenarioResultCache()
        cold = HierScheduler(hier, [scen], jobs=1, executor="serial",
                             etm_cache=cache)
        first = cold.signoff()
        assert first.etm_computed == len(hier.blocks)
        warm = HierScheduler(hier, [scen], jobs=1, executor="serial",
                             etm_cache=cache)
        second = warm.signoff()
        assert second.etm_computed == 0
        assert second.etm_cache_hits == len(hier.blocks)
        assert warm.extraction_runs == 0
        assert second.merged_wns("setup") == pytest.approx(
            first.merged_wns("setup"))

    def test_interior_table_edit_misses_etm_cache(self):
        """Re-characterizing the library in place — interior delay
        entries move, every table's min and max stay — must re-extract
        every block instead of serving stale ETMs."""
        lib = make_library()
        hier = hierarchical_soc(seed=1, n_blocks=2)
        scen = Scenario(name="tt", library=lib,
                        constraints=hier.top_constraints(period=900.0))
        cache = ScenarioResultCache()
        HierScheduler(hier, [scen], jobs=1, executor="serial",
                      etm_cache=cache).signoff()
        for cell in lib.cells.values():
            for arc in cell.arcs:
                for timing in arc.timing.values():
                    values = timing.delay.values
                    lo, hi = values.min(), values.max()
                    values[1:-1, 1:-1] += 20.0
                    assert (values.min(), values.max()) == (lo, hi)
        warm = HierScheduler(hier, [scen], jobs=1, executor="serial",
                             etm_cache=cache).signoff()
        fresh = HierScheduler(hier, [scen], jobs=1,
                              executor="serial").signoff()
        assert warm.etm_computed == len(hier.blocks)
        assert warm.etm_cache_hits == 0
        assert warm.merged_wns("setup") == fresh.merged_wns("setup")

    def test_broken_block_quarantines_scenario(self, lib):
        bad = Design("bad")
        bad.add_port("clk", PortDirection.INPUT)
        bad.add_port("bin", PortDirection.INPUT)
        bad.add_port("bout", PortDirection.OUTPUT)
        bad.add_instance("x", "NO_SUCH_CELL", {"A": "bin", "Z": "bout"})
        hier = HierarchicalDesign("broken")
        hier.add_block("b0", with_boundary_anchors(
            random_logic("ok0", seed=1)), origin=(40.0, 20.0))
        hier.add_block("bx", bad, origin=(220.0, 20.0))
        scen = Scenario(name="tt", library=lib,
                        constraints=hier.top_constraints(period=900.0))
        outcome = HierScheduler(
            hier, [scen], jobs=1, executor="serial",
            policy=RetryPolicy(retries=0),
        ).signoff()
        assert outcome.degraded == ["tt"]
        assert outcome.top is None
        assert not outcome.ok
        assert any(e.status == "degraded" for e in outcome.extractions)

    def test_missing_block_clock_rejected(self, lib):
        hier = hierarchical_soc(seed=1, n_blocks=2)
        cons = Constraints.single_clock(900.0)
        scen = Scenario(name="tt", library=lib, constraints=cons)
        with pytest.raises(TimingError, match="clk_"):
            HierScheduler(hier, [scen])

    def test_strict_rejects_unanchored_interfaces(self, lib):
        hier = HierarchicalDesign("raw")
        hier.add_block("b0", random_logic("raw0", seed=6),
                       origin=(40.0, 20.0))
        hier.add_block("b1", random_logic("raw1", seed=7),
                       origin=(220.0, 20.0))
        scen = Scenario(name="tt", library=lib,
                        constraints=hier.top_constraints(period=900.0))
        with pytest.raises(TimingError, match="anchored"):
            HierScheduler(hier, [scen], jobs=1,
                          executor="serial").signoff()

    def test_outcome_render_mentions_blocks(self, lib):
        hier = hierarchical_soc(seed=1, n_blocks=2)
        scen = Scenario(name="tt", library=lib,
                        constraints=hier.top_constraints(period=900.0))
        outcome = HierScheduler(hier, [scen], jobs=1,
                                executor="serial").signoff()
        text = outcome.render("setup")
        assert "block-internal WNS" in text
        assert "ETM extractions" in text
        assert "hier merged WNS" in text
