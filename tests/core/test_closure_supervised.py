"""Tests for supervised closure: STA retry, abort-with-trajectory, and
journal checkpoint/resume."""

import pytest

from repro.core.closure import ClosureConfig, ClosureEngine
from repro.errors import ClosureError
from repro.liberty import make_library
from repro.netlist.generators import random_logic
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.runtime.journal import RunJournal
from repro.runtime.supervisor import RetryPolicy
from repro.sta import Constraints
from repro.testing.faults import Fault, FaultInjector, FaultPlan


@pytest.fixture(scope="module")
def lib():
    return make_library()


def constrained_design(period=480.0, seed=3, n_gates=150):
    d = random_logic(n_gates=n_gates, n_levels=8, seed=seed)
    c = Constraints.single_clock(period)
    c.input_delays = {f"in{i}": 60.0 for i in range(32)}
    return d, c


def fast_policy(retries=2):
    return RetryPolicy(retries=retries, backoff_s=0.0)


CONFIG = dict(max_iterations=4, budget_per_fix=16)


class TestStaRetry:
    def test_transient_sta_crash_is_retried(self, lib):
        d, c = constrained_design()
        injector = FaultInjector(FaultPlan.of(Fault("crash", task="iter1")))
        engine = ClosureEngine(d, lib, c, policy=fast_policy(),
                               fault_injector=injector)
        report = engine.run(ClosureConfig(**CONFIG))
        assert report.aborted is None
        assert report.iterations
        assert engine.sta_attempts == engine.sta_runs + 1

    def test_transient_crash_counts_one_supervisor_retry(self, lib):
        d, c = constrained_design()
        injector = FaultInjector(FaultPlan.of(Fault("crash", task="iter1")))
        engine = ClosureEngine(d, lib, c, policy=fast_policy(),
                               fault_injector=injector)
        registry = MetricsRegistry()
        with obs_metrics.use(registry):
            engine.run(ClosureConfig(**CONFIG))
        # counter() would create a missing metric, so check names first.
        assert "supervisor.quarantines" not in registry.names()
        assert registry.counter("supervisor.retries").value == 1

    def test_policy_with_timeout_is_rejected(self, lib):
        d, c = constrained_design()
        with pytest.raises(ClosureError, match="timeout_s"):
            ClosureEngine(d, lib, c, policy=RetryPolicy(timeout_s=5.0))

    def test_transient_retime_crash_keeps_the_trajectory(self, lib):
        """An incremental retime that crashes once per call retries on a
        rebuilt timer and lands on the fault-free trajectory."""
        config = ClosureConfig(**CONFIG)
        d, c = constrained_design()
        clean = ClosureEngine(d, lib, c, policy=fast_policy()).run(config)
        d, c = constrained_design()
        injector = FaultInjector(FaultPlan.of(Fault("crash", task="iter2")))
        engine = ClosureEngine(d, lib, c, policy=fast_policy(),
                               fault_injector=injector)
        report = engine.run(config)
        assert report.aborted is None
        assert engine.sta_attempts > engine.sta_runs
        assert len(report.iterations) == len(clean.iterations) > 1
        for got, want in zip(report.iterations, clean.iterations):
            assert got.edits == want.edits
            assert got.setup_violations == want.setup_violations
            assert got.hold_violations == want.hold_violations
            assert got.wns_setup == pytest.approx(want.wns_setup, abs=1e-9)
            assert got.tns_setup == pytest.approx(want.tns_setup, abs=1e-9)
        assert report.final_wns == pytest.approx(clean.final_wns, abs=1e-9)

    def test_initial_sta_failure_raises(self, lib):
        d, c = constrained_design()
        injector = FaultInjector(FaultPlan.of(
            Fault("crash", task="iter1", attempts=tuple(range(1, 33))),
        ))
        engine = ClosureEngine(d, lib, c, policy=fast_policy(retries=1),
                               fault_injector=injector)
        with pytest.raises(ClosureError) as info:
            engine.run(ClosureConfig(**CONFIG))
        assert info.value.context["attempts"] == 2
        assert info.value.context["stage"] == "iter1"

    def test_midloop_failure_keeps_trajectory(self, lib):
        d, c = constrained_design()
        injector = FaultInjector(FaultPlan.of(
            Fault("crash", task="iter2", attempts=tuple(range(1, 33))),
        ))
        engine = ClosureEngine(d, lib, c, policy=fast_policy(retries=1),
                               fault_injector=injector)
        report = engine.run(ClosureConfig(**CONFIG))
        assert report.aborted is not None
        assert "ClosureError" in report.aborted
        assert not report.converged
        assert len(report.iterations) == 1  # iteration 1 survived
        assert "ABORTED" in report.render()


class TestCheckpointResume:
    def test_resume_replays_completed_iterations(self, lib, tmp_path):
        d, c = constrained_design()
        path = tmp_path / "closure.jsonl"
        config = ClosureConfig(**CONFIG)

        # Full run with journaling: checkpoints land per iteration.
        full = ClosureEngine(d, lib, c, journal=RunJournal(path),
                             policy=fast_policy())
        full_report = full.run(config)
        assert RunJournal(path).count("closure") >= 1

        # A fresh engine over the same inputs resumes instead of redoing.
        d2, c2 = constrained_design()
        resumed = ClosureEngine(d2, lib, c2, journal=RunJournal(path),
                                policy=fast_policy())
        resumed_report = resumed.run(config, resume=True)
        assert resumed_report.resumed_iterations >= 1
        assert resumed.sta_runs < full.sta_runs
        assert "resumed from checkpoint" in resumed_report.render()
        # the replayed trajectory prefix is identical
        for a, b in zip(full_report.iterations, resumed_report.iterations):
            assert a.iteration == b.iteration
            assert a.wns_setup == b.wns_setup
            assert a.edits == b.edits

    def test_resume_is_content_addressed(self, lib, tmp_path):
        """A checkpoint from different inputs must not be resumed."""
        d, c = constrained_design(seed=3)
        path = tmp_path / "closure.jsonl"
        config = ClosureConfig(**CONFIG)
        ClosureEngine(d, lib, c, journal=RunJournal(path),
                      policy=fast_policy()).run(config)

        d_other, c_other = constrained_design(seed=4)
        engine = ClosureEngine(d_other, lib, c_other,
                               journal=RunJournal(path),
                               policy=fast_policy())
        report = engine.run(config, resume=True)
        assert report.resumed_iterations == 0

    def test_resume_without_journal_is_fresh(self, lib):
        d, c = constrained_design()
        engine = ClosureEngine(d, lib, c, policy=fast_policy())
        report = engine.run(ClosureConfig(**CONFIG), resume=True)
        assert report.resumed_iterations == 0

    def test_aborted_run_resumes_past_the_fault(self, lib, tmp_path):
        """The acceptance shape: a run that aborts mid-loop leaves its
        checkpoints; a healed re-run resumes and only recomputes the
        remaining iterations."""
        # tighter period + smaller budget: this design needs 3 healthy
        # iterations to close, so a persistent iter3 fault aborts mid-loop
        d, c = constrained_design(period=440.0)
        path = tmp_path / "closure.jsonl"
        config = ClosureConfig(max_iterations=4, budget_per_fix=8)
        injector = FaultInjector(FaultPlan.of(
            Fault("crash", task="iter3", attempts=tuple(range(1, 33))),
        ))
        crashed = ClosureEngine(d, lib, c, journal=RunJournal(path),
                                policy=fast_policy(retries=1),
                                fault_injector=injector)
        crashed_report = crashed.run(config)
        assert crashed_report.aborted is not None
        journaled = RunJournal(path).count("closure")
        assert journaled >= 1

        d2, c2 = constrained_design(period=440.0)
        healed = ClosureEngine(d2, lib, c2, journal=RunJournal(path),
                               policy=fast_policy())
        report = healed.run(config, resume=True)
        assert report.aborted is None
        assert report.resumed_iterations == journaled
        # recomputation bounded by the un-journaled tail
        assert healed.sta_runs <= config.max_iterations + 1 - journaled
