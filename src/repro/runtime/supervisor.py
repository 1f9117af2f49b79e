"""Supervised task execution: timeouts, retries, degradation, fallback.

The supervisor runs a batch of independent tasks over a worker pool and
guarantees the batch *completes* even when individual attempts crash,
hang, or the pool itself dies:

- **Retry with exponential backoff** — a crashed or timed-out attempt is
  retried up to ``RetryPolicy.retries`` times, sleeping
  ``backoff_s * backoff_factor**(attempt-1)`` between attempts.
- **Degradation** — a task that exhausts every attempt is reported as
  :attr:`TaskStatus.DEGRADED` with its structured error chain instead of
  aborting the batch; what that means (a quarantine, a hand-off, an
  abort) is the caller's to name and count.
- **Executor fallback** — a broken pool (``BrokenExecutor``, or an
  :class:`~repro.errors.ExecutorBrokenError` surfaced by a worker)
  downgrades the executor (process -> thread -> serial) and resubmits
  the outstanding work. Infrastructure death is not charged to bystander
  tasks; only the task whose attempt surfaced the breakage pays one
  attempt (it is the prime suspect for having killed the pool).

Timeout semantics: a pool worker cannot be forcibly killed from Python,
so a timed-out attempt is *abandoned* — its slot is written off and a
fresh pool is spun up once every slot is lost. Abandoned thread workers
run to completion in the background (tests keep injected hangs short);
the timed-out task itself is retried immediately. Because an abandoned
attempt may still be executing, workers must only *read* shared inputs
— the signoff scheduler's workers share one design, which is safe
because :meth:`~repro.netlist.design.Design.bind` writes nothing when
the libraries agree on pin directions.

Tracing: when the caller has an active tracer, each attempt records
into a private worker tracer (thread-local, so parallel attempts never
interleave) whose spans travel home with the value — pickled across
process pools — and are ingested under the caller's current span after
the batch, in submission order, so span ids are the same for any jobs
count or executor flavor. A failed attempt's spans die with it.

Results are keyed by task name and returned in submission order, so a
supervised run is deterministic for any jobs count, executor flavor, or
retry history.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    ExecutionError,
    ExecutorBrokenError,
    TaskDegradedError,
    TimingError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing

#: Executor fallback order: when a pool dies the supervisor downgrades
#: one step and resubmits outstanding work.
FALLBACK_ORDER = {"process": "thread", "thread": "serial", "serial": None}


@dataclass
class RetryPolicy:
    """Retry/timeout policy for one supervised batch.

    Attributes:
        retries: extra attempts after the first (max attempts =
            ``retries + 1``).
        timeout_s: per-attempt wall-clock budget; None disables timeouts.
        backoff_s: sleep before the first retry, seconds.
        backoff_factor: multiplier applied per subsequent retry.
        max_backoff_s: backoff ceiling, seconds.
    """

    retries: int = 2
    timeout_s: Optional[float] = None
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0

    def __post_init__(self):
        if self.retries < 0:
            raise TimingError("retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise TimingError("timeout_s must be positive")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def delay(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt ``attempt``."""
        raw = self.backoff_s * self.backoff_factor ** (attempt - 1)
        return min(raw, self.max_backoff_s)


class TaskStatus(enum.Enum):
    OK = "ok"            # succeeded on the first attempt
    RETRIED = "retried"  # succeeded after at least one failed attempt
    DEGRADED = "degraded"  # exhausted every attempt; the caller decides


@dataclass
class SupervisedTask:
    """One unit of work: ``fn(payload, attempt)`` in a worker.

    ``fn`` must be a module-level callable and ``payload`` picklable when
    the process executor is used. The attempt number (1-based) is passed
    through so deterministic fault injection can target specific
    attempts.
    """

    name: str
    fn: Callable[[Any, int], Any]
    payload: Any = None


@dataclass
class TaskExecution:
    """The supervised outcome of one task."""

    name: str
    status: TaskStatus
    attempts: int = 0
    result: Any = None
    error: Optional[ExecutionError] = None
    #: One line per failed attempt: "attempt N: ErrorClass: message".
    error_chain: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status is not TaskStatus.DEGRADED

    @property
    def error_text(self) -> Optional[str]:
        """The degraded error as "ErrorClass: message" (None if ok)."""
        if self.error is None:
            return None
        return f"{type(self.error).__name__}: {self.error}"


def _traced_attempt(fn, payload, attempt):
    """Run one attempt recording into a private tracer.

    Returns ``(value, spans)`` so the spans travel home with the value.
    Module-level so process pools can pickle ``partial(_traced_attempt,
    fn)``; the tracer is thread-local, so parallel attempts never
    interleave their spans.
    """
    local = obs_tracing.Tracer()
    with obs_tracing.use(local):
        value = fn(payload, attempt)
    return value, local.spans()


def _call_in_thread(fn, payload, attempt, timeout_s):
    """Run one attempt in a daemon thread with a join timeout.

    Used by the serial executor so even ``executor="serial"`` honors
    per-attempt timeouts. A timed-out attempt is abandoned (the daemon
    thread cannot be killed) and reported as WorkerTimeoutError.
    """
    box: Dict[str, Any] = {}

    def target():
        try:
            box["result"] = fn(payload, attempt)
        except BaseException as exc:  # noqa: BLE001 - reraised below
            box["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout_s)
    if worker.is_alive():
        raise WorkerTimeoutError(
            "attempt exceeded its time budget", timeout_s=timeout_s
        )
    if "error" in box:
        raise box["error"]
    return box["result"]


class SupervisedExecutor:
    """Runs task batches under supervision (see module docstring).

    Args:
        jobs: worker count (>= 1).
        executor: "process", "thread" or "serial".
        policy: retry/timeout policy; default :class:`RetryPolicy`.
        sleep: injectable sleep (tests replace it to make backoff free).
        on_event: optional callback receiving human-readable supervision
            events (retries, pool rebuilds, fallbacks).
    """

    def __init__(
        self,
        jobs: int = 1,
        executor: str = "thread",
        policy: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        on_event: Optional[Callable[[str], None]] = None,
    ):
        if executor not in FALLBACK_ORDER:
            raise TimingError(
                f"unknown executor {executor!r}; "
                f"pick from {tuple(FALLBACK_ORDER)}"
            )
        if jobs < 1:
            raise TimingError("jobs must be >= 1")
        self.jobs = jobs
        self.executor = executor
        self.policy = policy or RetryPolicy()
        self.sleep = sleep
        self.on_event = on_event
        #: executor transitions taken this run, e.g. ["process->thread"].
        self.fallbacks: List[str] = []
        #: the flavor that finished the batch.
        self.executor_used = executor

    # ------------------------------------------------------------------ #

    def _event(self, message: str) -> None:
        if self.on_event is not None:
            self.on_event(message)

    def _attempt_failed(self, execution: TaskExecution, attempt: int,
                        error: Exception,
                        queue: deque) -> None:
        """Charge one failed attempt; requeue or mark it DEGRADED."""
        if not isinstance(error, ExecutionError):
            error = WorkerCrashError(
                f"worker crashed: {type(error).__name__}: {error}"
            )
        error.with_context(task=execution.name, attempt=attempt)
        execution.attempts = attempt
        execution.error_chain.append(
            f"attempt {attempt}: {type(error).__name__}: {error.message}"
        )
        if isinstance(error, WorkerTimeoutError):
            obs_metrics.inc("supervisor.timeouts")
        if attempt >= self.policy.max_attempts:
            execution.status = TaskStatus.DEGRADED
            execution.error = TaskDegradedError(
                f"failed after {attempt} attempt(s): {error.message}",
                task=execution.name,
                attempts=attempt,
                cause=type(error).__name__,
            )
            return
        self._event(
            f"retry {execution.name}: attempt {attempt} failed "
            f"({type(error).__name__})"
        )
        obs_metrics.inc("supervisor.retries")
        self.sleep(self.policy.delay(attempt))
        queue.append((execution.name, attempt + 1))

    def _attempt_succeeded(self, execution: TaskExecution, attempt: int,
                           result: Any) -> None:
        execution.attempts = attempt
        execution.result = result
        execution.status = (
            TaskStatus.OK if attempt == 1 else TaskStatus.RETRIED
        )

    # ------------------------------------------------------------------ #
    # serial execution (bottom of the fallback chain)

    def _run_serial(self, tasks: Dict[str, SupervisedTask],
                    queue: deque,
                    executions: Dict[str, TaskExecution]) -> None:
        while queue:
            name, attempt = queue.popleft()
            task = tasks[name]
            try:
                if self.policy.timeout_s is not None:
                    result = _call_in_thread(
                        task.fn, task.payload, attempt, self.policy.timeout_s
                    )
                else:
                    result = task.fn(task.payload, attempt)
            except Exception as exc:  # noqa: BLE001
                self._attempt_failed(executions[name], attempt, exc, queue)
            else:
                self._attempt_succeeded(executions[name], attempt, result)

    # ------------------------------------------------------------------ #
    # pooled execution

    def _run_pooled(self, flavor: str, tasks: Dict[str, SupervisedTask],
                    queue: deque,
                    executions: Dict[str, TaskExecution]) -> Optional[str]:
        """One pool's era. Returns None when the batch is drained,
        "rebuild" when every slot was lost to hung attempts, or "broken"
        when the pool died; outstanding work is already requeued."""
        pool_cls = (ProcessPoolExecutor if flavor == "process"
                    else ThreadPoolExecutor)
        size = min(self.jobs, max(1, len(queue)))
        pool = pool_cls(max_workers=size)
        running: Dict[Any, Tuple[str, int, float]] = {}
        lost_slots = 0

        def requeue_running() -> None:
            """Salvage in-flight work when abandoning this pool: harvest
            attempts that already finished successfully, requeue the rest
            at the same attempt number (infrastructure death is not
            charged to bystander tasks)."""
            for fut, (name, attempt, _) in running.items():
                if fut.done() and not fut.cancelled():
                    try:
                        self._attempt_succeeded(
                            executions[name], attempt, fut.result()
                        )
                        continue
                    except Exception:  # noqa: BLE001
                        pass
                fut.cancel()
                queue.appendleft((name, attempt))
            running.clear()

        try:
            while queue or running:
                while queue and len(running) < size - lost_slots:
                    name, attempt = queue.popleft()
                    try:
                        fut = pool.submit(
                            tasks[name].fn, tasks[name].payload, attempt
                        )
                    except (BrokenExecutor, RuntimeError):
                        queue.appendleft((name, attempt))
                        requeue_running()
                        return "broken"
                    deadline = (
                        time.monotonic() + self.policy.timeout_s
                        if self.policy.timeout_s is not None else float("inf")
                    )
                    running[fut] = (name, attempt, deadline)

                if not running:
                    # every slot written off to a hung attempt: abandon
                    # this pool and start a fresh one of the same flavor.
                    return "rebuild"

                wait_budget = None
                if self.policy.timeout_s is not None:
                    nearest = min(d for _, _, d in running.values())
                    wait_budget = max(0.0, nearest - time.monotonic()) + 0.01
                done, _ = wait(set(running), timeout=wait_budget,
                               return_when=FIRST_COMPLETED)

                for fut in done:
                    name, attempt, _ = running.pop(fut)
                    try:
                        result = fut.result()
                    except BrokenExecutor:
                        # The pool died under this attempt: the attempt is
                        # charged to the triggering task, bystanders are
                        # requeued for free.
                        self._attempt_failed(
                            executions[name], attempt,
                            ExecutorBrokenError("worker pool died"), queue,
                        )
                        requeue_running()
                        return "broken"
                    except ExecutorBrokenError as exc:
                        self._attempt_failed(
                            executions[name], attempt, exc, queue
                        )
                        requeue_running()
                        return "broken"
                    except Exception as exc:  # noqa: BLE001
                        self._attempt_failed(
                            executions[name], attempt, exc, queue
                        )
                    else:
                        self._attempt_succeeded(
                            executions[name], attempt, result
                        )

                now = time.monotonic()
                for fut in [f for f, (_, _, d) in running.items() if d <= now]:
                    name, attempt, _ = running.pop(fut)
                    if not fut.cancel():
                        # Attempt already executing: its slot is lost for
                        # the lifetime of this pool.
                        lost_slots += 1
                    self._attempt_failed(
                        executions[name], attempt,
                        WorkerTimeoutError(
                            "attempt exceeded its time budget",
                            timeout_s=self.policy.timeout_s,
                        ),
                        queue,
                    )
                if lost_slots >= size and (queue or running):
                    requeue_running()
                    return "rebuild"
            return None
        finally:
            pool.shutdown(wait=False)

    # ------------------------------------------------------------------ #

    def run(self, task_list: Sequence[SupervisedTask]) -> List[TaskExecution]:
        """Run the batch to completion; one execution per task, in order.

        With an active tracer, each succeeding attempt's spans are
        ingested under the caller's current span (module docstring).
        """
        names = [t.name for t in task_list]
        if len(set(names)) != len(names):
            raise TimingError("supervised task names must be unique")
        tracer = obs_tracing.active_tracer()
        tasks = {
            t.name: (t if tracer is None else SupervisedTask(
                t.name, partial(_traced_attempt, t.fn), t.payload))
            for t in task_list
        }
        executions = {
            name: TaskExecution(name=name, status=TaskStatus.DEGRADED)
            for name in names
        }
        queue: deque = deque((name, 1) for name in names)

        flavor = self.executor
        while queue:
            if flavor == "serial":
                self._run_serial(tasks, queue, executions)
                break
            outcome = self._run_pooled(flavor, tasks, queue, executions)
            if outcome is None:
                break
            if outcome == "rebuild":
                self._event(f"{flavor} pool exhausted by hung attempts; "
                            "starting a fresh pool")
                continue
            nxt = FALLBACK_ORDER[flavor]
            self.fallbacks.append(f"{flavor}->{nxt}")
            self._event(f"executor fallback: {flavor} -> {nxt}")
            obs_metrics.inc("supervisor.fallbacks")
            flavor = nxt
        self.executor_used = flavor

        ordered = [executions[name] for name in names]
        if tracer is not None:
            parent_id = tracer.current_span_id()
            for execution in ordered:
                if execution.ok:
                    execution.result, spans = execution.result
                    tracer.ingest(spans, parent_id=parent_id)
        return ordered
