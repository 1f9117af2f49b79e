"""Tests for the supervised executor: retries, timeouts, quarantine,
executor fallback."""

import os
import time

import pytest

from repro.errors import (
    ExecutorBrokenError,
    TaskDegradedError,
    TimingError,
)
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.runtime.supervisor import (
    RetryPolicy,
    SupervisedExecutor,
    SupervisedTask,
    TaskStatus,
)


def _ok(payload, attempt):
    return payload * 2


def _flaky(payload, attempt):
    """Fails on attempt 1, succeeds after."""
    if attempt == 1:
        raise ValueError("transient")
    return f"recovered:{payload}"


def _always_fails(payload, attempt):
    raise RuntimeError("persistent corruption")


def _hangs_once(payload, attempt):
    if attempt == 1:
        time.sleep(0.6)
    return f"done:{payload}"


def _breaks_pool_once(payload, attempt):
    if attempt == 1:
        raise ExecutorBrokenError("injected pool death")
    return f"survived:{payload}"


def run_tasks(fn, payloads, **kwargs):
    kwargs.setdefault("sleep", lambda s: None)
    sup = SupervisedExecutor(**{k: v for k, v in kwargs.items()
                                if k not in ("names",)})
    names = kwargs.get("names") or [f"t{i}" for i in range(len(payloads))]
    tasks = [SupervisedTask(name=n, fn=fn, payload=p)
             for n, p in zip(names, payloads)]
    return sup, sup.run(tasks)


class TestHappyPath:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_all_ok(self, executor):
        sup, execs = run_tasks(_ok, [1, 2, 3], jobs=2, executor=executor)
        assert [e.result for e in execs] == [2, 4, 6]
        assert all(e.status is TaskStatus.OK for e in execs)
        assert all(e.attempts == 1 for e in execs)
        assert sup.fallbacks == []
        assert sup.executor_used == executor

    def test_results_in_submission_order(self):
        sup, execs = run_tasks(_ok, list(range(8)), jobs=4)
        assert [e.name for e in execs] == [f"t{i}" for i in range(8)]
        assert [e.result for e in execs] == [i * 2 for i in range(8)]

    def test_unique_names_required(self):
        sup = SupervisedExecutor()
        with pytest.raises(TimingError):
            sup.run([SupervisedTask("a", _ok, 1),
                     SupervisedTask("a", _ok, 2)])

    def test_unknown_executor_rejected(self):
        with pytest.raises(TimingError):
            SupervisedExecutor(executor="mpi")

    def test_jobs_positive(self):
        with pytest.raises(TimingError):
            SupervisedExecutor(jobs=0)


class TestRetry:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_transient_failure_is_retried(self, executor):
        sup, execs = run_tasks(_flaky, ["a"], executor=executor,
                               policy=RetryPolicy(retries=2))
        (e,) = execs
        assert e.status is TaskStatus.RETRIED
        assert e.attempts == 2
        assert e.result == "recovered:a"
        assert "attempt 1" in e.error_chain[0]

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_persistent_failure_quarantined(self, executor):
        sup, execs = run_tasks(_always_fails, ["a"], executor=executor,
                               policy=RetryPolicy(retries=2))
        (e,) = execs
        assert e.status is TaskStatus.DEGRADED
        assert e.attempts == 3
        assert isinstance(e.error, TaskDegradedError)
        assert e.error.context["attempts"] == 3
        assert len(e.error_chain) == 3

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_exhausted_task_leaves_quarantine_to_its_caller(self,
                                                            executor):
        """The supervisor counts attempts; whether a DEGRADED task is a
        quarantine, a hand-off or an abort is its caller's to say."""
        events = []
        registry = MetricsRegistry()
        with obs_metrics.use(registry):
            sup, execs = run_tasks(_always_fails, ["a"], executor=executor,
                                   policy=RetryPolicy(retries=1),
                                   on_event=events.append)
        assert execs[0].status is TaskStatus.DEGRADED
        assert events == ["retry t0: attempt 1 failed (WorkerCrashError)"]
        assert registry.names() == ["supervisor.retries"]
        assert registry.counter("supervisor.retries").value == 1

    def test_degraded_does_not_abort_batch(self):
        def one_bad(payload, attempt):
            if payload == "bad":
                raise RuntimeError("boom")
            return payload

        sup, execs = run_tasks(
            one_bad, ["ok1", "bad", "ok2"], jobs=2,
            policy=RetryPolicy(retries=1),
        )
        assert [e.status for e in execs] == [
            TaskStatus.OK, TaskStatus.DEGRADED, TaskStatus.OK
        ]
        assert execs[0].result == "ok1" and execs[2].result == "ok2"

    def test_backoff_schedule(self):
        slept = []
        run_tasks(_always_fails, ["a"],
                  policy=RetryPolicy(retries=3, backoff_s=0.1,
                                     backoff_factor=2.0, max_backoff_s=0.3),
                  sleep=slept.append)
        assert slept == [0.1, 0.2, 0.3]  # capped at max_backoff_s

    def test_retry_policy_validation(self):
        with pytest.raises(TimingError):
            RetryPolicy(retries=-1)
        with pytest.raises(TimingError):
            RetryPolicy(timeout_s=0.0)


class TestTimeout:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_hang_times_out_and_retries(self, executor):
        sup, execs = run_tasks(
            _hangs_once, ["x"], executor=executor,
            policy=RetryPolicy(retries=1, timeout_s=0.1, backoff_s=0.0),
        )
        (e,) = execs
        assert e.status is TaskStatus.RETRIED
        assert e.result == "done:x"
        assert "WorkerTimeoutError" in e.error_chain[0]

    def test_hang_exhausting_attempts_degrades(self):
        def hang_forever(payload, attempt):
            time.sleep(0.4)
            return "never awarded"

        sup, execs = run_tasks(
            hang_forever, ["x"], executor="thread",
            policy=RetryPolicy(retries=1, timeout_s=0.05, backoff_s=0.0),
        )
        (e,) = execs
        assert e.status is TaskStatus.DEGRADED
        assert "WorkerTimeoutError" in e.error_chain[-1]

    def test_bystanders_survive_a_hang(self):
        def one_hangs(payload, attempt):
            if payload == "slow" and attempt == 1:
                time.sleep(0.5)
            return payload

        sup, execs = run_tasks(
            one_hangs, ["a", "slow", "b", "c"], jobs=2, executor="thread",
            policy=RetryPolicy(retries=2, timeout_s=0.1, backoff_s=0.0),
        )
        by_name = {e.name: e for e in execs}
        assert all(e.ok for e in execs)
        assert by_name["t1"].status is TaskStatus.RETRIED


class TestFallback:
    def test_pool_break_falls_back(self):
        sup, execs = run_tasks(
            _breaks_pool_once, ["x"], jobs=2, executor="thread",
            policy=RetryPolicy(retries=2, backoff_s=0.0),
        )
        (e,) = execs
        assert e.ok
        assert e.result == "survived:x"
        assert sup.fallbacks == ["thread->serial"]
        assert sup.executor_used == "serial"

    def test_serial_treats_pool_break_as_crash(self):
        # Serial has nowhere to fall back: the injected breakage is
        # charged as a normal attempt failure and retried in place.
        sup, execs = run_tasks(
            _breaks_pool_once, ["x"], executor="serial",
            policy=RetryPolicy(retries=2, backoff_s=0.0),
        )
        (e,) = execs
        assert e.ok
        assert sup.fallbacks == []

    def test_bystanders_not_charged_by_pool_death(self):
        def breaker(payload, attempt):
            if payload == "bomb" and attempt == 1:
                raise ExecutorBrokenError("pool killed")
            return payload

        sup, execs = run_tasks(
            breaker, ["a", "bomb", "b"], jobs=3, executor="thread",
            policy=RetryPolicy(retries=1, backoff_s=0.0),
        )
        by_name = {e.name: e for e in execs}
        assert all(e.ok for e in execs)
        # only the triggering task pays an attempt
        assert by_name["t1"].attempts == 2
        assert by_name["t0"].status is not TaskStatus.DEGRADED
        assert by_name["t2"].status is not TaskStatus.DEGRADED


def _spanned(payload, attempt):
    """One span per attempt; the first attempt on "b" fails inside it."""
    with obs_tracing.span("work", payload=payload, attempt=attempt):
        if payload == "b" and attempt == 1:
            raise ValueError("transient")
    return payload.upper()


class TestWorkerTracing:
    """The executor carries worker spans home; call sites only open
    spans."""

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_traced_batch_ingests_succeeding_attempts_in_order(
            self, executor):
        tracer = Tracer()
        with obs_tracing.use(tracer):
            with obs_tracing.span("fanout") as fanout:
                sup, execs = run_tasks(
                    _spanned, ["a", "b", "c"], jobs=2, executor=executor,
                    policy=RetryPolicy(retries=1, backoff_s=0.0),
                )
        assert [e.result for e in execs] == ["A", "B", "C"]
        assert [e.status for e in execs] == [
            TaskStatus.OK, TaskStatus.RETRIED, TaskStatus.OK
        ]
        work = [s for s in tracer.spans() if s.name == "work"]
        # Ids follow submission order; b's failed attempt left no span.
        assert [(s.attrs["payload"], s.attrs["attempt"]) for s in work] \
            == [("a", 1), ("b", 2), ("c", 1)]
        assert all(s.parent_id == fanout.span_id for s in work)
        assert all("error" not in s.attrs for s in work)
        in_caller = {s.pid == os.getpid() for s in work}
        assert in_caller == {executor != "process"}

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_untraced_batch_returns_plain_values(self, executor):
        with obs_tracing.use(None):
            sup, execs = run_tasks(_spanned, ["a", "c"], jobs=2,
                                   executor=executor)
        assert [e.result for e in execs] == ["A", "C"]

    def test_degraded_task_error_text(self):
        sup, execs = run_tasks(_always_fails, ["a"], executor="serial",
                               policy=RetryPolicy(retries=0))
        (e,) = execs
        assert e.error_text == f"TaskDegradedError: {e.error}"
        assert "persistent corruption" in e.error_text
        assert run_tasks(_ok, [1])[1][0].error_text is None
