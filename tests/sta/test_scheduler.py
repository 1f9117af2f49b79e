"""Tests for the parallel signoff scheduler and its result cache."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import LibraryError, NetlistError, TimingError
from repro.liberty import LibraryCondition, make_library
from repro.netlist.generators import random_logic
from repro.netlist.transforms import Edit, set_ndr, upsize
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.runtime.supervisor import RetryPolicy
from repro.sta import STA, Constraints, IncrementalTimer
from repro.sta.mcmm import Scenario, ScenarioSet
from repro.sta.reports import TimingReport
from repro.sta.scheduler import (
    ScenarioResultCache,
    SignoffScheduler,
    constraints_fingerprint,
    design_fingerprint,
    library_fingerprint,
    scenario_fingerprint,
)
from repro.testing.faults import Fault, FaultInjector, FaultPlan


@pytest.fixture(scope="module")
def lib():
    return make_library()


@pytest.fixture(scope="module")
def lib_ss():
    return make_library(
        LibraryCondition(process="ss", vdd=0.72, temp_c=125.0)
    )


def make_scenarios(lib, lib_ss):
    c = Constraints.single_clock(520.0)
    c.input_delays = {f"in{i}": 60.0 for i in range(16)}
    return [
        Scenario("tt_typ", lib, c),
        Scenario("ss_cw", lib_ss, c, beol_corner_name="cw", temp_c=125.0),
        Scenario("ss_rcw", lib_ss, c, beol_corner_name="rcw", temp_c=125.0),
    ]


def make_design(seed=9):
    return random_logic(n_inputs=16, n_outputs=16, n_gates=120,
                        n_levels=6, seed=seed)


def slack_text(outcome):
    return "\n".join(
        outcome.reports[n].render_full() for n in sorted(outcome.reports)
    )


class TestDeterminism:
    def test_parallel_matches_serial_byte_for_byte(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        design = make_design()
        serial = SignoffScheduler(scenarios, jobs=1).signoff(design)
        parallel = SignoffScheduler(scenarios, jobs=4,
                                    executor="thread").signoff(design)
        assert slack_text(serial) == slack_text(parallel)
        assert serial.render("setup") == parallel.render("setup")
        assert serial.render("hold") == parallel.render("hold")

    def test_results_keyed_by_name_not_completion_order(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        design = make_design()
        outcome = SignoffScheduler(scenarios, jobs=4).signoff(design)
        assert list(outcome.reports) == [s.name for s in scenarios]
        for name, report in outcome.reports.items():
            assert report.scenario == name

    def test_scenarioset_run_jobs_param(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        design = make_design()
        base = ScenarioSet(scenarios).run(design)
        fanned = ScenarioSet(scenarios).run(design, jobs=4)
        for name in base.reports:
            assert base.reports[name].render_full() == \
                fanned.reports[name].render_full()

    def test_thread_pool_isolates_shared_design(self, lib, lib_ss):
        """Stress the thread path on a block large enough to overlap
        scenario propagation windows.

        STA mutates the design it analyzes (bind rebuilds net
        driver/load lists), so before workers were given private design
        copies this raced: on ~1500-gate blocks with jobs=4 most runs
        either crashed (AttributeError on a mid-rebind null driver) or
        silently produced slacks different from serial. Small designs
        finish each scenario before the next thread starts binding,
        which is why only a large block exercises the overlap.
        """
        scenarios = make_scenarios(lib, lib_ss)
        design = random_logic(n_inputs=16, n_outputs=16, n_gates=1500,
                              n_levels=10, seed=9)
        ref = slack_text(SignoffScheduler(scenarios, jobs=1).signoff(design))
        for _ in range(3):
            out = SignoffScheduler(scenarios, jobs=4,
                                   executor="thread").signoff(design)
            assert slack_text(out) == ref

    def test_abandoned_attempt_shares_the_design(self, lib, lib_ss,
                                                 monkeypatch):
        """A hang longer than the timeout abandons tt_typ's first
        attempt. It wakes and analyzes the shared design while its retry
        and the other scenarios run. No worker copies the design, yet
        every analysis -- the abandoned one included -- equals a
        fault-free serial run."""
        from repro.sta.scheduler import ScenarioStatus
        from repro.testing.faults import Fault, FaultInjector, FaultPlan

        c = Constraints.single_clock(520.0)
        c.input_delays = {f"in{i}": 60.0 for i in range(16)}
        scenarios = make_scenarios(lib, lib_ss) + [
            Scenario("tt_cw", lib, c, beol_corner_name="cw"),
            Scenario("ss_typ", lib_ss, c, temp_c=125.0),
        ]
        design = random_logic(n_inputs=16, n_outputs=16, n_gates=1500,
                              n_levels=10, seed=9)
        serial = SignoffScheduler(scenarios, jobs=1).signoff(design)
        expected = {name: report.render_full()
                    for name, report in serial.reports.items()}

        analyses = []  # (scenario, rendered report or raised error)
        original = Scenario.run

        def recording(scenario, d, stack):
            try:
                report = original(scenario, d, stack)
            except Exception as exc:
                analyses.append((scenario.name, repr(exc)))
                raise
            analyses.append((scenario.name, report.render_full()))
            return report

        monkeypatch.setattr(Scenario, "run", recording)
        # Attempts take 1-1.6 s on an idle 2-core machine. The budget
        # is over 3x that, so a busy machine does not time out the
        # retries too; the hang outlasts it by 0.2 s, so attempt 1 is
        # still abandoned and wakes while its retry runs.
        injector = FaultInjector(FaultPlan.of(
            Fault("hang", task="tt_typ", seconds=5.2)
        ))
        out = SignoffScheduler(
            scenarios, jobs=3, executor="thread",
            policy=RetryPolicy(retries=2, timeout_s=5.0, backoff_s=0.0),
            fault_injector=injector,
        ).signoff(design)
        assert out.records["tt_typ"].status is ScenarioStatus.RETRIED
        assert [name for name, report in out.reports.items()
                if report.render_full() != expected[name]] == []

        deadline = time.monotonic() + 30.0
        while [n for n, _ in analyses].count("tt_typ") < 2 \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [n for n, _ in analyses].count("tt_typ") == 2
        assert [name for name, text in analyses
                if text != expected[name]] == []


class TestCache:
    def test_warm_run_skips_recomputation(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        design = make_design()
        cache = ScenarioResultCache()
        scheduler = SignoffScheduler(scenarios, jobs=2, cache=cache)

        cold = scheduler.signoff(design)
        assert scheduler.evaluations == len(scenarios)
        assert cold.recomputed == [s.name for s in scenarios]

        warm = scheduler.signoff(design)
        # The call counter must not move: every scenario was a cache hit.
        assert scheduler.evaluations == len(scenarios)
        assert warm.recomputed == []
        assert warm.cache_hits == [s.name for s in scenarios]
        assert slack_text(warm) == slack_text(cold)
        assert cache.stats.hits == len(scenarios)

    def test_netlist_change_misses(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        cache = ScenarioResultCache()
        scheduler = SignoffScheduler(scenarios, cache=cache)
        scheduler.signoff(make_design(seed=9))
        scheduler.signoff(make_design(seed=10))
        assert scheduler.evaluations == 2 * len(scenarios)

    def test_constraint_change_misses(self, lib):
        design = make_design()
        cache = ScenarioResultCache()
        tight = Constraints.single_clock(400.0)
        loose = Constraints.single_clock(520.0)
        s1 = SignoffScheduler([Scenario("tt", lib, loose)], cache=cache)
        s1.signoff(design)
        s2 = SignoffScheduler([Scenario("tt", lib, tight)], cache=cache)
        s2.signoff(design)
        assert s2.evaluations == 1
        assert cache.stats.misses == 2

    def test_shared_cache_across_schedulers(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        design = make_design()
        cache = ScenarioResultCache()
        SignoffScheduler(scenarios, jobs=1, cache=cache).signoff(design)
        other = SignoffScheduler(scenarios, jobs=4, cache=cache)
        outcome = other.signoff(design)
        assert other.evaluations == 0
        assert outcome.recomputed == []

    def test_lru_eviction(self, lib):
        c = Constraints.single_clock(520.0)
        cache = ScenarioResultCache(max_entries=2)
        scheduler = SignoffScheduler([Scenario("tt", lib, c)], cache=cache)
        for seed in (1, 2, 3):
            scheduler.signoff(make_design(seed=seed))
        assert len(cache) == 2

    def test_lru_eviction_order_is_least_recently_used(self, lib):
        """Eviction is true LRU: a lookup refreshes recency, so the
        entry evicted at capacity is the least recently *used*, not the
        oldest stored."""
        c = Constraints.single_clock(520.0)
        cache = ScenarioResultCache(max_entries=2)
        scheduler = SignoffScheduler([Scenario("tt", lib, c)], cache=cache)
        designs = {seed: make_design(seed=seed) for seed in (1, 2, 3)}

        scheduler.signoff(designs[1])  # cache: [1]
        scheduler.signoff(designs[2])  # cache: [1, 2]
        scheduler.signoff(designs[1])  # HIT: refreshes 1 -> [2, 1]
        assert scheduler.evaluations == 2

        scheduler.signoff(designs[3])  # at capacity: evicts 2, not 1
        assert scheduler.evaluations == 3
        scheduler.signoff(designs[1])  # still cached
        assert scheduler.evaluations == 3
        scheduler.signoff(designs[2])  # was evicted: recomputes
        assert scheduler.evaluations == 4

    def test_lookup_touch_moves_entry_to_mru(self, lib):
        """The recency refresh is observable directly on the cache:
        after a lookup the touched key is at the MRU end of keys()."""
        c = Constraints.single_clock(520.0)
        cache = ScenarioResultCache(max_entries=8)
        scheduler = SignoffScheduler([Scenario("tt", lib, c)], cache=cache)
        scheduler.signoff(make_design(seed=1))
        scheduler.signoff(make_design(seed=2))

        lru_key = cache.keys()[0]
        assert cache.lookup(*lru_key) is not None
        assert cache.keys()[-1] == lru_key

    def test_store_refreshes_existing_entry(self, lib):
        c = Constraints.single_clock(520.0)
        cache = ScenarioResultCache(max_entries=8)
        scheduler = SignoffScheduler([Scenario("tt", lib, c)], cache=cache)
        scheduler.signoff(make_design(seed=1))
        scheduler.signoff(make_design(seed=2))

        oldest = cache.keys()[0]
        report = cache._store[oldest].report
        cache.store(*oldest, report)  # re-store touches recency too
        assert cache.keys()[-1] == oldest
        assert len(cache) == 2

    def test_threads_share_one_cache(self):
        """Workers store and look up while other threads invalidate, as
        the daemon's workers and readers do: no thread fails, and no
        count is lost."""
        cache = ScenarioResultCache(max_entries=4, verify=True)
        report = TimingReport()
        lookups = [0, 0, 0]
        errors = []
        barrier = threading.Barrier(3)

        def hammer(index):
            try:
                barrier.wait(timeout=30)
                stop = time.monotonic() + 1.0
                n = 0
                while time.monotonic() < stop:
                    design = f"d{n % 3}"
                    cache.store(design, str(n % 5), "s", report)
                    cache.lookup(design, str((n + index) % 5), "s")
                    lookups[index] += 1
                    if n % 3 == index:
                        cache.invalidate_design(design)
                    n += 1
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.stats.hits + cache.stats.misses == sum(lookups)
        assert len(cache) <= 4

    def test_incremental_timer_invalidates(self, lib):
        c = Constraints.single_clock(520.0)
        design = make_design()
        cache = ScenarioResultCache()
        scheduler = SignoffScheduler([Scenario("tt", lib, c)], cache=cache)
        scheduler.signoff(design)
        assert len(cache) == 1

        sta = STA(design, lib, c)
        sta.report = sta.run()
        timer = IncrementalTimer(sta)
        name = next(
            i.name for i in design.combinational_instances(lib)
            if i.cell_name.startswith("NAND2")
        )
        assert upsize(design, lib, name)
        timer.update_cells([name])

        # Re-signoff recomputes (the content key changed) and agrees
        # with a from-scratch run on the edited design.
        outcome = scheduler.signoff(design)
        assert outcome.recomputed == ["tt"]
        fresh = Scenario("tt", lib, c).run(design, scheduler.stack)
        assert outcome.reports["tt"].render_full() == fresh.render_full()


class TestFingerprints:
    def test_design_fingerprint_stable_and_sensitive(self, lib):
        a = make_design(seed=5)
        b = make_design(seed=5)
        assert design_fingerprint(a) == design_fingerprint(b)
        name = next(iter(a.instances))
        a.instances[name].cell_name += "_X2"
        assert design_fingerprint(a) != design_fingerprint(b)

    def test_constraints_fingerprint_sensitive(self):
        base = Constraints.single_clock(500.0)
        assert constraints_fingerprint(base) == \
            constraints_fingerprint(Constraints.single_clock(500.0))
        assert constraints_fingerprint(base) != \
            constraints_fingerprint(Constraints.single_clock(500.5))
        margin = Constraints.single_clock(500.0)
        margin.flat_setup_margin = 12.0
        assert constraints_fingerprint(base) != \
            constraints_fingerprint(margin)

    def test_library_fingerprint_sees_cell_table_mutation(self):
        """In-place library edits must miss the cache, not hit stale.

        The fingerprint hashes full cell contents, not just condition
        metadata and cell count, so re-characterizing a cell (same name,
        same count) changes it.
        """
        lib = make_library()
        fp0 = library_fingerprint(lib)
        assert fp0 == library_fingerprint(make_library())
        cell = next(iter(lib.cells.values()))
        cell.leakage *= 2.0
        assert library_fingerprint(lib) != fp0

        c = Constraints.single_clock(500.0)
        s0 = scenario_fingerprint(Scenario("s", make_library(), c))
        assert scenario_fingerprint(Scenario("s", lib, c)) != s0

    def test_mutated_library_misses_cache(self):
        lib = make_library()
        c = Constraints.single_clock(520.0)
        design = make_design()
        cache = ScenarioResultCache()
        scheduler = SignoffScheduler([Scenario("tt", lib, c)], cache=cache)
        scheduler.signoff(design)
        arc = next(iter(lib.cells.values())).arcs[0]
        arc.timing["rise"].delay.values *= 1.01
        scheduler.signoff(design)
        assert scheduler.evaluations == 2
        assert cache.stats.hits == 0

    def test_interior_table_edit_misses_cache(self):
        """A re-characterization that keeps every table's min and max
        (the interior entries move, the corners do not) must still miss:
        tables are hashed by value, not by a shape-and-range summary."""
        lib = make_library()
        c = Constraints.single_clock(520.0)
        design = random_logic(n_inputs=16, n_outputs=16, n_gates=60,
                              n_levels=6, seed=1)
        cache = ScenarioResultCache()
        scheduler = SignoffScheduler([Scenario("tt", lib, c)], cache=cache)
        before = scheduler.signoff(design).result.merged_wns("setup")
        for cell in lib.cells.values():
            for arc in cell.arcs:
                for timing in arc.timing.values():
                    values = timing.delay.values
                    lo, hi = values.min(), values.max()
                    values[1:-1, 1:-1] += 20.0
                    assert (values.min(), values.max()) == (lo, hi)
        again = scheduler.signoff(design)
        fresh = SignoffScheduler([Scenario("tt", lib, c)]).signoff(design)
        assert again.cache_hits == []
        assert again.result.merged_wns("setup") == \
            fresh.result.merged_wns("setup") < before - 20.0

    def test_scenario_fingerprint_sees_corner_params(self, lib, lib_ss):
        c = Constraints.single_clock(500.0)
        typ = Scenario("s", lib, c)
        cw = Scenario("s", lib, c, beol_corner_name="cw")
        hot = Scenario("s", lib, c, temp_c=125.0)
        ss = Scenario("s", lib_ss, c)
        fps = {scenario_fingerprint(s) for s in (typ, cw, hot, ss)}
        assert len(fps) == 4


class TestValidation:
    def test_needs_scenarios(self):
        with pytest.raises(TimingError):
            SignoffScheduler([])

    def test_unique_names(self, lib):
        c = Constraints.single_clock(500.0)
        with pytest.raises(TimingError):
            SignoffScheduler([Scenario("a", lib, c), Scenario("a", lib, c)])

    def test_jobs_positive(self, lib):
        c = Constraints.single_clock(500.0)
        with pytest.raises(TimingError):
            SignoffScheduler([Scenario("a", lib, c)], jobs=0)

    def test_executor_validated(self, lib):
        c = Constraints.single_clock(500.0)
        with pytest.raises(TimingError):
            SignoffScheduler([Scenario("a", lib, c)], executor="mpi")

    def test_engine_validated(self, lib):
        c = Constraints.single_clock(500.0)
        with pytest.raises(TimingError):
            SignoffScheduler([Scenario("a", lib, c)], engine="warp")


class TestMonteCarloBatching:
    def test_chain_mc_bit_identical_across_jobs(self):
        from repro.variation.montecarlo import spice_chain_mc

        kwargs = dict(n_stages=3, n_samples=8, seed=11, sigma_vt=0.06,
                      dt=2.0)
        serial = spice_chain_mc(jobs=1, **kwargs)
        threaded = spice_chain_mc(jobs=4, **kwargs)
        assert np.array_equal(serial, threaded)

    def test_evaluate_samples_independent_of_batching(self):
        from repro.spice.montecarlo import evaluate_samples

        def draw(index, rng):
            return float(rng.normal())

        a = evaluate_samples(draw, 16, seed=3, jobs=1)
        b = evaluate_samples(draw, 16, seed=3, jobs=5)
        assert a == b
        # Different master seed -> different samples.
        c = evaluate_samples(draw, 16, seed=4, jobs=1)
        assert a != c

    def test_evaluate_samples_preserves_order(self):
        from repro.spice.montecarlo import evaluate_samples

        assert evaluate_samples(lambda i, rng: i * i, 10, jobs=4) == \
            [i * i for i in range(10)]

    def test_evaluate_samples_rejects_unknown_executor(self):
        from repro.spice.montecarlo import evaluate_samples

        with pytest.raises(TimingError):
            evaluate_samples(lambda i, rng: i, 1, jobs=2, executor="rayon")

    def test_evaluate_samples_raises_first_failed_sample(self):
        from repro.errors import TaskDegradedError
        from repro.spice.montecarlo import evaluate_samples

        def fails_from_three(index, rng):
            if index >= 3:
                raise ValueError(f"sample {index} diverged")
            return index

        with pytest.raises(TaskDegradedError,
                           match="sample 3 diverged") as info:
            evaluate_samples(fails_from_three, 6, jobs=2)
        assert info.value.context["task"] == "sample-3"

    def test_failed_sample_is_not_called_quarantined(self):
        """An aborted batch quarantines nothing; the error says so."""
        from repro.errors import TaskDegradedError
        from repro.spice.montecarlo import evaluate_samples

        def diverges(index, rng):
            raise ValueError("sample diverged")

        with pytest.raises(TaskDegradedError) as info:
            evaluate_samples(diverges, 2)
        assert info.value.message.startswith("failed after 1 attempt(s): ")
        assert "quarantine" not in str(info.value)


class TestScenarioTimerPool:
    def _pool_setup(self, lib, period=520.0):
        from repro.sta.scheduler import ScenarioTimerPool

        c = Constraints.single_clock(period)
        c.input_delays = {f"in{i}": 60.0 for i in range(16)}
        design = make_design()
        pool = ScenarioTimerPool()
        build = lambda: STA(design, lib, c)
        return design, c, pool, build

    def test_first_retime_builds_then_warm_starts(self, lib):
        design, c, pool, build = self._pool_setup(lib)
        report, how = pool.retime("tt", build=build)
        assert how == "full"
        assert pool.builds == 1
        assert pool.incremental_retimes == pool.full_retimes == 0
        assert pool.get("tt") is not None
        assert report is pool.get("tt").sta.report

        # Warm start: the same timer absorbs a swap cone-limited.
        name = next(
            i.name for i in design.combinational_instances(lib)
            if i.cell_name.startswith("NAND2")
        )
        edit = upsize(design, lib, name)
        assert edit is not None
        timer_before = pool.get("tt")
        pool.note([edit])
        assert pool.retime("tt")[1] == "incremental"
        assert pool.get("tt") is timer_before  # reused, not re-bound
        assert pool.incremental_retimes == 1
        assert pool.full_retimes == 0
        assert timer_before.last_cone_size > 0

    def test_topology_change_forces_full_update(self, lib):
        design, c, pool, build = self._pool_setup(lib)
        pool.retime("tt", build=build)
        net = next(n for n in design.nets if not n.startswith("clk"))
        pool.note([set_ndr(design, net)])
        assert pool.retime("tt")[1] == "full"
        assert pool.full_retimes == 1
        assert pool.incremental_retimes == 0
        assert pool.get("tt").full_updates == 1

    def test_unabsorbable_edit_surfaces_errors(self, lib):
        design, c, pool, build = self._pool_setup(lib)
        pool.retime("tt", build=build)
        name = next(
            i.name for i in design.combinational_instances(lib)
            if i.cell_name.startswith("NAND2")
        )
        inst = design.instance(name)
        # Arc-set-changing corruption the cone update must refuse.
        before = inst.cell_name
        inst.cell_name = before.replace("NAND2", "INV")
        pool.note([Edit("swap", name, before, inst.cell_name)])
        with pytest.raises(LibraryError, match="no pin 'B'"):
            # Unbindable corruption even the full update rejects...
            pool.retime("tt")

        design2, c2, pool2, build2 = self._pool_setup(lib)
        pool2.retime("tt", build=build2)
        # ...and a swap record naming no instance is refused before the
        # cone update mutates anything.
        pool2.note([Edit("swap", "nonexistent", "", "")])
        with pytest.raises(NetlistError, match="nonexistent"):
            pool2.retime("tt")

    def test_retime_without_timer_needs_build(self, lib):
        from repro.sta.scheduler import ScenarioTimerPool

        pool = ScenarioTimerPool()
        with pytest.raises(TimingError, match="no warm timer"):
            pool.retime("tt")

    def test_per_scenario_timers_are_independent(self, lib, lib_ss):
        from repro.sta.scheduler import ScenarioTimerPool

        c = Constraints.single_clock(520.0)
        c.input_delays = {f"in{i}": 60.0 for i in range(16)}
        design = make_design()
        pool = ScenarioTimerPool()
        pool.retime("tt", build=lambda: STA(design, lib, c))
        pool.retime("ss", build=lambda: STA(design, lib_ss, c))
        assert pool.names() == ["ss", "tt"]
        assert pool.builds == 2
        assert pool.get("tt") is not pool.get("ss")

        name = next(
            i.name for i in design.combinational_instances(lib)
            if i.cell_name.startswith("NAND2")
        )
        edit = upsize(design, lib, name)
        assert edit is not None
        pool.note([edit])
        tt_report, tt_how = pool.retime("tt")
        ss_report, ss_how = pool.retime("ss")
        assert tt_how == ss_how == "incremental"
        assert pool.incremental_retimes == 2
        # Each scenario's warm retime equals its own from-scratch run.
        assert tt_report.render_full() == \
            STA(design, lib, c).run().render_full()
        assert ss_report.render_full() == \
            STA(design, lib_ss, c).run().render_full()

    def test_discard_forgets_warm_state(self, lib):
        design, c, pool, build = self._pool_setup(lib)
        pool.retime("tt", build=build)
        pool.discard("tt")
        assert pool.get("tt") is None
        pool.retime("tt", build=build)
        assert pool.builds == 2


class TestEngineCacheParity:
    """The content-hash cache must be engine-blind: kernel-produced
    reports hit and miss exactly like reference reports, and a report
    computed by either engine satisfies the other's lookups."""

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    def test_warm_run_skips_recomputation(self, lib, lib_ss, engine):
        scenarios = make_scenarios(lib, lib_ss)
        design = make_design()
        cache = ScenarioResultCache(verify=True)
        scheduler = SignoffScheduler(scenarios, cache=cache, engine=engine)

        cold = scheduler.signoff(design)
        assert scheduler.evaluations == len(scenarios)
        assert sorted(cold.recomputed) == sorted(s.name for s in scenarios)

        warm = scheduler.signoff(design)
        assert scheduler.evaluations == len(scenarios)
        assert warm.recomputed == []
        assert warm.cache_hits == [s.name for s in scenarios]
        assert slack_text(warm) == slack_text(cold)
        assert cache.stats.evaluations == len(scenarios)

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    def test_netlist_change_misses(self, lib, lib_ss, engine):
        scenarios = make_scenarios(lib, lib_ss)
        cache = ScenarioResultCache()
        scheduler = SignoffScheduler(scenarios, cache=cache, engine=engine)
        scheduler.signoff(make_design(seed=9))
        scheduler.signoff(make_design(seed=10))
        assert scheduler.evaluations == 2 * len(scenarios)

    @pytest.mark.parametrize("first,second", [
        ("reference", "vector"), ("vector", "reference"),
    ])
    def test_cross_engine_cache_identity(self, lib, lib_ss, first, second):
        scenarios = make_scenarios(lib, lib_ss)
        design = make_design()
        cache = ScenarioResultCache(verify=True)
        SignoffScheduler(scenarios, cache=cache,
                         engine=first).signoff(design)
        other = SignoffScheduler(scenarios, cache=cache, engine=second)
        outcome = other.signoff(design)
        # Same design + scenarios -> same fingerprints -> all hits,
        # regardless of which engine populated the cache.
        assert other.evaluations == 0
        assert outcome.recomputed == []
        assert outcome.cache_hits == [s.name for s in scenarios]

    def test_vector_reports_match_reference(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        ref = SignoffScheduler(scenarios).signoff(make_design())
        vec = SignoffScheduler(scenarios,
                               engine="vector").signoff(make_design())
        assert slack_text(vec) == slack_text(ref)
        for name in ref.reports:
            assert vec.reports[name] == ref.reports[name]
            assert vec.reports[name].scenario == name

    @pytest.mark.parametrize("plan", [
        pytest.param(lambda names: FaultPlan.seeded(
            1, names, crash_rate=0.3, persistent_rate=0.3, kernel_rate=0.3,
        ), id="seeded"),
        pytest.param(lambda names: FaultPlan.of(
            Fault("pool_break", task="ss_cw"),
            Fault("crash", task="ss_rcw", attempts=(1, 2)),
        ), id="pool_break"),
        pytest.param(lambda names: FaultPlan.of(
            Fault("kernel_compile", task="ss_rcw"),
        ), id="kernel_compile"),
        pytest.param(lambda names: FaultPlan.of(
            Fault("hang", task="ss_cw", seconds=2.5),
        ), id="hang"),
    ])
    def test_fault_plan_records_match_reference(self, lib, lib_ss, plan):
        """A fault plan gives every scenario the same record, supervisor
        counts and pool history on both engines and both pooled
        executors: a failed mode's scenarios rejoin the per-scenario
        fan-out, which owns retry, quarantine and pool breaks on either
        engine. A hung mode reads one more timeout, its own."""
        names = [s.name for s in make_scenarios(lib, lib_ss)]
        faults = plan(names).faults
        assert faults
        hangs = any(f.kind == "hang" for f in faults)

        def run(engine, executor):
            registry = MetricsRegistry()
            with obs_metrics.use(registry):
                outcome = SignoffScheduler(
                    make_scenarios(lib, lib_ss), jobs=2, engine=engine,
                    executor=executor,
                    # Over 10x an attempt; the hang outlasts it.
                    policy=RetryPolicy(retries=1, backoff_s=0.0,
                                       timeout_s=2.0 if hangs else None),
                    fault_injector=FaultInjector(plan(names)),
                ).signoff(make_design())
            return outcome, {name: registry.get(name).value
                             for name in registry.names()
                             if name.startswith("supervisor.")}

        for executor in ("thread", "process"):
            ref, ref_counts = run("reference", executor)
            vec, vec_counts = run("vector", executor)
            assert vec.records == ref.records
            assert vec.degraded == ref.degraded
            assert slack_text(vec) == slack_text(ref)
            assert vec.fallbacks == ref.fallbacks
            assert vec.executor_used == ref.executor_used
            if hangs:
                ref_counts["supervisor.timeouts"] += 1
            assert vec_counts == ref_counts
            # One event names the failed mode; the reference run has none.
            assert len([e for e in vec.events
                        if e.startswith("vector engine fell back")]) == 1
            assert not [e for e in ref.events
                        if e.startswith("vector engine")]
