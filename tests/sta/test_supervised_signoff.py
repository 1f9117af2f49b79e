"""Integration tests: supervised signoff under injected faults, cache
integrity verification, and journal checkpoint/resume."""

import pytest

from repro.errors import SignoffError
from repro.liberty import LibraryCondition, make_library
from repro.netlist.generators import random_logic
from repro.obs import tracing as obs_tracing
from repro.obs.tracing import Tracer
from repro.runtime.journal import RunJournal
from repro.runtime.supervisor import RetryPolicy
from repro.sta import Constraints
from repro.sta.mcmm import Scenario
from repro.sta.scheduler import (
    ScenarioResultCache,
    ScenarioStatus,
    SignoffScheduler,
)
from repro.testing.faults import (
    Fault,
    FaultInjector,
    FaultPlan,
    corrupt_cache_entry,
)


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
    c.input_delays = {f"in{i}": 60.0 for i in range(8)}
    return [
        Scenario("tt_typ", lib, c),
        Scenario("ss_cw", lib_ss, c, beol_corner_name="cw", temp_c=125.0),
        Scenario("ss_rcw", lib_ss, c, beol_corner_name="rcw", temp_c=125.0),
    ]


def make_design(seed=9):
    return random_logic(n_inputs=8, n_outputs=8, n_gates=60,
                        n_levels=4, seed=seed)


def fast_policy(**kwargs):
    kwargs.setdefault("retries", 2)
    kwargs.setdefault("backoff_s", 0.0)
    return RetryPolicy(**kwargs)


class TestFaultRecovery:
    """Fault plans against the supervised fan-out. The reference engine
    runs them here; :class:`TestVectorFaultRecovery` runs the same
    bodies on the vector engine, where every per-scenario record must
    come out the same."""

    engine = "reference"

    def signoff_scheduler(self, scenarios, **kwargs):
        return SignoffScheduler(scenarios, engine=self.engine, **kwargs)

    def assert_mode_fell_back(self, outcome, error):
        """On the vector engine the one mode of the three scenarios fails
        first, and one fallback event names its error."""
        fell = [e for e in outcome.events
                if e.startswith("vector engine fell back")]
        if self.engine == "reference":
            assert fell == []
        else:
            assert fell == ["vector engine fell back to reference for "
                            f"3 scenario(s): attempt 1: {error}"]
        # The failed mode is not quarantined: no event names its task.
        assert not [e for e in outcome.events
                    if e.startswith("quarantine tt_typ,")]

    def test_transient_crash_is_retried(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        injector = FaultInjector(FaultPlan.of(Fault("crash", task="ss_cw")))
        scheduler = self.signoff_scheduler(
            scenarios, jobs=2, policy=fast_policy(),
            fault_injector=injector,
        )
        outcome = scheduler.signoff(make_design())
        assert outcome.ok
        assert sorted(outcome.reports) == ["ss_cw", "ss_rcw", "tt_typ"]
        assert outcome.records["ss_cw"].status is ScenarioStatus.RETRIED
        assert outcome.records["ss_cw"].attempts == 2
        assert outcome.records["tt_typ"].status is ScenarioStatus.OK
        self.assert_mode_fell_back(
            outcome, "InjectedFaultError: injected worker crash")
        # 3 scenarios + 1 retry; the failed mode attempt adds 3 lanes.
        assert scheduler.attempts == \
            {"reference": 4, "vector": 7}[self.engine]

    def test_persistent_crash_quarantined_batch_completes(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        injector = FaultInjector(FaultPlan.of(
            Fault("crash", task="ss_rcw", attempts=tuple(range(1, 33))),
        ))
        scheduler = self.signoff_scheduler(
            scenarios, jobs=2, policy=fast_policy(retries=1),
            fault_injector=injector,
        )
        outcome = scheduler.signoff(make_design())
        assert not outcome.ok
        assert outcome.degraded == ["ss_rcw"]
        assert sorted(outcome.reports) == ["ss_cw", "tt_typ"]
        record = outcome.records["ss_rcw"]
        assert record.status is ScenarioStatus.DEGRADED
        assert record.attempts == 2
        assert "TaskDegradedError" in record.error
        assert len(record.error_chain) == 2
        # merged result still available over the surviving scenarios
        assert set(outcome.result.reports) == {"ss_cw", "tt_typ"}
        self.assert_mode_fell_back(
            outcome, "InjectedFaultError: injected worker crash")

    def test_crash_plus_hang_completes(self, lib, lib_ss):
        """The acceptance scenario: one hanging and one crashing scenario
        in the same batch; the batch completes with quarantine only where
        every attempt failed. The hang comes first in lane order, so on
        the vector engine the mode is abandoned at ``timeout_s``."""
        scenarios = make_scenarios(lib, lib_ss)
        injector = FaultInjector(FaultPlan.of(
            Fault("hang", task="ss_cw", seconds=1.0),
            Fault("crash", task="ss_rcw", attempts=tuple(range(1, 33))),
        ))
        scheduler = self.signoff_scheduler(
            scenarios, jobs=2,
            policy=fast_policy(retries=1, timeout_s=0.5),
            fault_injector=injector,
        )
        outcome = scheduler.signoff(make_design())
        assert outcome.degraded == ["ss_rcw"]
        assert outcome.records["ss_cw"].status is ScenarioStatus.RETRIED
        assert sorted(outcome.reports) == ["ss_cw", "tt_typ"]
        assert "DEGRADED: 1/3 scenario(s) quarantined" in outcome.render()
        self.assert_mode_fell_back(
            outcome, "WorkerTimeoutError: attempt exceeded its time budget")

    def test_pool_break_falls_back(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        injector = FaultInjector(
            FaultPlan.of(Fault("pool_break", task="tt_typ"))
        )
        scheduler = self.signoff_scheduler(
            scenarios, jobs=2, policy=fast_policy(),
            fault_injector=injector,
        )
        outcome = scheduler.signoff(make_design())
        assert outcome.ok
        assert outcome.fallbacks == ["thread->serial"]
        assert outcome.executor_used == "serial"
        assert sorted(outcome.reports) == ["ss_cw", "ss_rcw", "tt_typ"]
        self.assert_mode_fell_back(
            outcome, "ExecutorBrokenError: injected worker-pool death")

    def test_keep_going_false_raises_after_journaling(self, lib, lib_ss,
                                                      tmp_path):
        scenarios = make_scenarios(lib, lib_ss)
        injector = FaultInjector(FaultPlan.of(
            Fault("crash", task="ss_cw", attempts=tuple(range(1, 33))),
        ))
        journal = RunJournal(tmp_path / "run.jsonl")
        scheduler = self.signoff_scheduler(
            scenarios, jobs=2, policy=fast_policy(retries=1),
            fault_injector=injector, journal=journal, keep_going=False,
        )
        with pytest.raises(SignoffError) as info:
            scheduler.signoff(make_design())
        assert info.value.context["scenarios"] == ["ss_cw"]
        # the successes were journaled before the raise: a re-run resumes
        assert journal.count("scenario") == 2

    def test_faulted_run_matches_clean_run(self, lib, lib_ss):
        """Fault recovery must not change the timing answer."""
        scenarios = make_scenarios(lib, lib_ss)
        design = make_design()
        clean = self.signoff_scheduler(scenarios, jobs=1).signoff(design)
        injector = FaultInjector(FaultPlan.of(
            Fault("crash", task="ss_cw"),
            Fault("crash", task="tt_typ"),
        ))
        faulted = self.signoff_scheduler(
            make_scenarios(lib, lib_ss), jobs=2,
            policy=fast_policy(), fault_injector=injector,
        ).signoff(design)
        for name in clean.reports:
            assert clean.reports[name].render_full() == \
                faulted.reports[name].render_full()
        self.assert_mode_fell_back(
            faulted, "InjectedFaultError: injected worker crash")


class TestVectorFaultRecovery(TestFaultRecovery):
    """The fault plans above with each mode timed as one supervised
    kernel task: a failed mode's scenarios rejoin the per-scenario
    fan-out, so retry and quarantine come out as on the reference."""

    engine = "vector"

    def test_crash_in_one_mode_keeps_the_other_on_the_kernel(self, lib,
                                                             lib_ss):
        def two_modes():
            fast = Constraints.single_clock(520.0)
            slow = Constraints.single_clock(560.0)
            for c in (fast, slow):
                c.input_delays = {f"in{i}": 60.0 for i in range(8)}
            return [
                Scenario("tt_typ", lib, fast),
                Scenario("ss_cw", lib_ss, fast, beol_corner_name="cw",
                         temp_c=125.0),
                Scenario("ss_rcw", lib_ss, slow, beol_corner_name="rcw",
                         temp_c=125.0),
            ]

        injector = FaultInjector(FaultPlan.of(
            Fault("crash", task="ss_rcw", attempts=tuple(range(1, 33))),
        ))
        tracer = Tracer()
        with obs_tracing.use(tracer):
            outcome = self.signoff_scheduler(
                two_modes(), jobs=2, policy=fast_policy(retries=1),
                fault_injector=injector,
            ).signoff(make_design())
        assert outcome.degraded == ["ss_rcw"]
        assert outcome.records["tt_typ"].status is ScenarioStatus.OK
        assert outcome.records["ss_cw"].status is ScenarioStatus.OK
        assert outcome.events[0] == (
            "vector engine fell back to reference for 1 scenario(s): "
            "attempt 1: InjectedFaultError: injected worker crash")
        spans = tracer.spans()
        (vector,) = [s for s in spans if s.name == "vector_signoff"]
        assert vector.attrs["kernel_fallbacks"] == "ss_rcw"
        assert sorted(s.attrs["scenario"] for s in spans
                      if s.name == "scenario"
                      and s.attrs.get("source") == "vector") == \
            ["ss_cw", "tt_typ"]
        reference = SignoffScheduler(two_modes()).signoff(make_design())
        for name in ("tt_typ", "ss_cw"):
            assert outcome.reports[name].render_full() == \
                reference.reports[name].render_full()


class TestCacheIntegrity:
    def test_corrupted_entry_recomputes(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        design = make_design()
        cache = ScenarioResultCache(verify=True)
        scheduler = SignoffScheduler(scenarios, cache=cache,
                                     policy=fast_policy())
        scheduler.signoff(design)
        assert scheduler.evaluations == 3

        corrupted_fp = corrupt_cache_entry(cache, seed=1)
        assert corrupted_fp is not None
        again = scheduler.signoff(design)
        # only the corrupted entry recomputes; the others hit
        assert len(again.recomputed) == 1
        assert len(again.cache_hits) == 2
        assert cache.stats.corruptions == 1
        assert scheduler.evaluations == 4
        assert again.records[again.recomputed[0]].fingerprint == corrupted_fp

    def test_unverified_cache_serves_corruption(self, lib, lib_ss):
        """Without verify=True the corruption goes undetected — the test
        documents why the CLI arms verification."""
        scenarios = make_scenarios(lib, lib_ss)
        design = make_design()
        cache = ScenarioResultCache(verify=False)
        scheduler = SignoffScheduler(scenarios, cache=cache)
        scheduler.signoff(design)
        corrupt_cache_entry(cache, seed=1)
        again = scheduler.signoff(design)
        assert again.recomputed == []  # poison served silently
        assert cache.stats.corruptions == 0


class TestCheckpointResume:
    def test_partial_journal_resumes(self, lib, lib_ss, tmp_path):
        scenarios = make_scenarios(lib, lib_ss)
        design = make_design()
        path = tmp_path / "signoff.jsonl"

        first = SignoffScheduler(scenarios[:2], journal=RunJournal(path),
                                 policy=fast_policy())
        first.signoff(design)
        assert first.evaluations == 2

        # a fresh scheduler over the full set recomputes only the third
        second = SignoffScheduler(scenarios, journal=RunJournal(path),
                                  policy=fast_policy())
        outcome = second.signoff(design)
        assert second.evaluations == 1
        assert sorted(outcome.journal_hits) == ["ss_cw", "tt_typ"]
        assert outcome.recomputed == ["ss_rcw"]
        assert outcome.records["tt_typ"].status is ScenarioStatus.JOURNALED

    def test_full_journal_recomputes_nothing(self, lib, lib_ss, tmp_path):
        scenarios = make_scenarios(lib, lib_ss)
        design = make_design()
        path = tmp_path / "signoff.jsonl"
        SignoffScheduler(scenarios, journal=RunJournal(path),
                         policy=fast_policy()).signoff(design)

        resumed = SignoffScheduler(scenarios, journal=RunJournal(path),
                                   policy=fast_policy())
        outcome = resumed.signoff(design)
        assert resumed.evaluations == 0
        assert outcome.recomputed == []
        assert len(outcome.journal_hits) == 3

    def test_journal_is_content_addressed(self, lib, lib_ss, tmp_path):
        """A checkpoint recorded for one design never satisfies another."""
        scenarios = make_scenarios(lib, lib_ss)
        path = tmp_path / "signoff.jsonl"
        SignoffScheduler(scenarios, journal=RunJournal(path),
                         policy=fast_policy()).signoff(make_design(seed=9))

        other = SignoffScheduler(scenarios, journal=RunJournal(path),
                                 policy=fast_policy())
        outcome = other.signoff(make_design(seed=10))
        assert other.evaluations == 3
        assert outcome.journal_hits == []

    def test_journaled_report_equals_computed(self, lib, lib_ss, tmp_path):
        scenarios = make_scenarios(lib, lib_ss)
        design = make_design()
        path = tmp_path / "signoff.jsonl"
        fresh = SignoffScheduler(scenarios, journal=RunJournal(path),
                                 policy=fast_policy()).signoff(design)
        resumed = SignoffScheduler(scenarios, journal=RunJournal(path),
                                   policy=fast_policy()).signoff(design)
        for name in fresh.reports:
            assert fresh.reports[name].render_full() == \
                resumed.reports[name].render_full()

    def test_degraded_scenarios_are_not_journaled(self, lib, lib_ss,
                                                  tmp_path):
        """Quarantine must not checkpoint: the re-run retries the failed
        scenario instead of resuming its absence."""
        scenarios = make_scenarios(lib, lib_ss)
        design = make_design()
        path = tmp_path / "signoff.jsonl"
        injector = FaultInjector(FaultPlan.of(
            Fault("crash", task="ss_cw", attempts=tuple(range(1, 33))),
        ))
        SignoffScheduler(
            scenarios, policy=fast_policy(retries=1),
            fault_injector=injector, journal=RunJournal(path),
        ).signoff(design)
        assert RunJournal(path).count("scenario") == 2

        # fault gone (the transient cleared): resume completes the batch
        healed = SignoffScheduler(scenarios, journal=RunJournal(path),
                                  policy=fast_policy())
        outcome = healed.signoff(design)
        assert healed.evaluations == 1
        assert outcome.recomputed == ["ss_cw"]
        assert outcome.ok


class TestRenderStatus:
    def test_status_column(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        outcome = SignoffScheduler(scenarios, jobs=2,
                                   policy=fast_policy()).signoff(make_design())
        text = outcome.render()
        assert "status" in text.splitlines()[0]
        for line in text.splitlines()[1:4]:
            assert " OK " in line

    def test_cached_status_shown(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        design = make_design()
        cache = ScenarioResultCache()
        scheduler = SignoffScheduler(scenarios, cache=cache,
                                     policy=fast_policy())
        scheduler.signoff(design)
        text = scheduler.signoff(design).render()
        assert text.count("CACHED") == 3

    def test_retried_and_degraded_status_shown(self, lib, lib_ss):
        scenarios = make_scenarios(lib, lib_ss)
        injector = FaultInjector(FaultPlan.of(
            Fault("crash", task="tt_typ"),
            Fault("crash", task="ss_rcw", attempts=tuple(range(1, 33))),
        ))
        outcome = SignoffScheduler(
            scenarios, jobs=2, policy=fast_policy(retries=1),
            fault_injector=injector,
        ).signoff(make_design())
        text = outcome.render()
        assert "RETRIED" in text
        assert "DEGRADED" in text
        degraded_line = next(
            l for l in text.splitlines() if l.startswith("ss_rcw")
        )
        assert "TaskDegradedError" in degraded_line
