"""Tests for the deterministic fault-injection harness."""

import time

import pytest

from repro.errors import (
    ExecutorBrokenError,
    InjectedFaultError,
    TimingError,
    WorkerCrashError,
)
from repro.liberty import make_library
from repro.testing.faults import (
    Fault,
    FaultInjector,
    FaultPlan,
    corrupt_cache_entry,
    malform_library,
)
from repro.validate import validate_library


class TestFault:
    def test_matching(self):
        fault = Fault("crash", task="ss_cw", attempts=(1, 2))
        assert fault.matches("ss_cw", 1)
        assert fault.matches("ss_cw", 2)
        assert not fault.matches("ss_cw", 3)
        assert not fault.matches("tt_typ", 1)

    def test_wildcard_task(self):
        fault = Fault("hang")
        assert fault.matches("anything", 1)
        assert not fault.matches("anything", 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TimingError):
            Fault("segfault")


class TestFaultPlan:
    def test_of(self):
        plan = FaultPlan.of(Fault("crash", task="a"),
                            Fault("hang", task="b"))
        assert plan.for_task("a", 1).kind == "crash"
        assert plan.for_task("b", 1).kind == "hang"
        assert plan.for_task("c", 1) is None

    def test_seeded_is_deterministic(self):
        names = [f"s{i}" for i in range(20)]
        a = FaultPlan.seeded(7, names, crash_rate=0.3, hang_rate=0.2,
                             persistent_rate=0.1)
        b = FaultPlan.seeded(7, names, crash_rate=0.3, hang_rate=0.2,
                             persistent_rate=0.1)
        assert a == b

    def test_seeded_varies_with_seed(self):
        names = [f"s{i}" for i in range(20)]
        a = FaultPlan.seeded(1, names, crash_rate=0.5)
        b = FaultPlan.seeded(2, names, crash_rate=0.5)
        assert a != b

    def test_seeded_rates(self):
        names = [f"s{i}" for i in range(200)]
        plan = FaultPlan.seeded(3, names, crash_rate=0.25, hang_rate=0.1,
                                persistent_rate=0.05)
        kinds = [f.kind for f in plan.faults]
        persistent = [f for f in plan.faults
                      if f.kind == "crash" and len(f.attempts) > 1]
        # loose bounds: rates are statistical, the seed pins the values
        assert 0.2 < len(kinds) / len(names) < 0.6
        assert persistent  # 5% of 200 draws should land at least once
        assert all(f.attempts == tuple(range(1, 33)) for f in persistent)

    def test_seeded_zero_rates_empty(self):
        plan = FaultPlan.seeded(0, ["a", "b"], crash_rate=0.0,
                                hang_rate=0.0, persistent_rate=0.0)
        assert plan.faults == ()


class TestFaultInjector:
    def test_crash_raises_injected_fault(self):
        injector = FaultInjector(FaultPlan.of(Fault("crash", task="t")))
        with pytest.raises(InjectedFaultError) as info:
            injector.fire("t", 1)
        # injected crashes must walk the production recovery path
        assert isinstance(info.value, WorkerCrashError)
        assert info.value.context["task"] == "t"
        injector.fire("t", 2)  # attempt 2: no fault -> no raise
        injector.fire("other", 1)

    def test_pool_break_raises_broken(self):
        injector = FaultInjector(FaultPlan.of(Fault("pool_break")))
        with pytest.raises(ExecutorBrokenError):
            injector.fire("t", 1)

    def test_hang_sleeps(self):
        injector = FaultInjector(
            FaultPlan.of(Fault("hang", task="t", seconds=0.05))
        )
        t0 = time.perf_counter()
        injector.fire("t", 1)
        assert time.perf_counter() - t0 >= 0.05

    def test_empty_plan_is_silent(self):
        FaultInjector().fire("anything", 1)

    def test_injector_pickles(self):
        import pickle

        injector = FaultInjector(
            FaultPlan.seeded(5, ["a", "b", "c"], crash_rate=0.5)
        )
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.plan == injector.plan


class TestKernelFaults:
    """kernel_compile faults target the vector engine's compile sites."""

    def test_scope_partitions_worker_and_kernel(self):
        plan = FaultPlan.of(
            Fault("crash", task="a"),
            Fault("kernel_compile", task="b"),
            Fault("hang", task="c"),
        )
        assert Fault("kernel_compile", task="b").scope == "kernel"
        assert Fault("crash", task="a").scope == "worker"
        # for_task honors scope: the kernel fault is invisible to the
        # worker lookup and vice versa.
        assert plan.for_task("b", 1) is None
        assert plan.for_task("b", 1, scope="kernel").kind == \
            "kernel_compile"
        assert plan.for_task("a", 1, scope="kernel") is None

    def test_worker_fire_ignores_kernel_faults(self):
        injector = FaultInjector(
            FaultPlan.of(Fault("kernel_compile", task="t"))
        )
        injector.fire("t", 1)  # must not raise: wrong scope

    def test_fire_kernel_raises_compile_error(self):
        from repro.sta.kernel import KernelCompileError

        injector = FaultInjector(
            FaultPlan.of(Fault("kernel_compile", task="t"))
        )
        with pytest.raises(KernelCompileError) as info:
            injector.fire_kernel("t", 1)
        assert info.value.context["task"] == "t"
        injector.fire_kernel("t", 2)   # attempt 2: transient by default
        injector.fire_kernel("other")  # other tasks unaffected

    def test_fire_kernel_ignores_worker_faults(self):
        injector = FaultInjector(FaultPlan.of(Fault("crash", task="t")))
        injector.fire_kernel("t", 1)  # must not raise: wrong scope

    def test_seeded_kernel_rate_draws_kernel_faults(self):
        names = [f"s{i}" for i in range(200)]
        plan = FaultPlan.seeded(11, names, crash_rate=0.0, hang_rate=0.0,
                                persistent_rate=0.0, kernel_rate=0.2)
        assert plan.faults  # 20% of 200 draws should land
        assert all(f.kind == "kernel_compile" for f in plan.faults)
        again = FaultPlan.seeded(11, names, crash_rate=0.0,
                                 hang_rate=0.0, persistent_rate=0.0,
                                 kernel_rate=0.2)
        assert plan == again


class TestDataCorruption:
    def test_corrupt_cache_entry(self):
        from repro.netlist.generators import random_logic
        from repro.sta import Constraints
        from repro.sta.mcmm import Scenario
        from repro.sta.scheduler import ScenarioResultCache, SignoffScheduler

        lib = make_library()
        c = Constraints.single_clock(520.0)
        c.input_delays = {f"in{i}": 60.0 for i in range(8)}
        design = random_logic(n_inputs=8, n_outputs=8, n_gates=40,
                              n_levels=4, seed=3)
        cache = ScenarioResultCache(verify=True)
        SignoffScheduler([Scenario("tt_typ", lib, c)],
                         cache=cache).signoff(design)

        fingerprint = corrupt_cache_entry(cache, seed=0)
        assert fingerprint
        # verification treats the damaged entry as a miss and drops it
        key = next(iter(cache.keys()))
        assert cache.lookup(*key) is None
        assert cache.stats.corruptions == 1

    def test_corrupt_empty_cache_returns_none(self):
        from repro.sta.scheduler import ScenarioResultCache

        assert corrupt_cache_entry(ScenarioResultCache()) is None

    @pytest.mark.parametrize("kind,code", [
        ("nan_delay", "non-finite-table"),
        ("negative_delay", "negative-delay"),
        ("drop_pin", "arc-pin-missing"),
    ])
    def test_malform_library_caught_by_validator(self, kind, code):
        from repro.validate import ValidationReport

        lib = make_library()
        assert ValidationReport(issues=validate_library(lib)).ok
        damage = malform_library(lib, seed=1, kind=kind)
        report = ValidationReport(issues=validate_library(lib))
        assert not report.ok
        assert any(
            issue.code == code and damage["cell"] in issue.subject
            for issue in report.errors
        ), report.render()

    def test_malform_library_deterministic(self):
        a = malform_library(make_library(), seed=4, kind="nan_delay")
        b = malform_library(make_library(), seed=4, kind="nan_delay")
        assert a == b

    def test_malform_unknown_kind(self):
        with pytest.raises(TimingError):
            malform_library(make_library(), kind="gamma_ray")
