"""Deterministic fault injection for the supervised signoff runtime.

Chaos testing only earns its keep when failures are *reproducible*: a
flaky chaos suite is worse than none. Every fault here is therefore
declared up front in a :class:`FaultPlan` — either explicitly or drawn
from a seeded RNG — and fires at exact (task, attempt) coordinates:

- ``crash``     — the worker raises :class:`~repro.errors.InjectedFaultError`
  (a :class:`~repro.errors.WorkerCrashError`), exercising retry and
  quarantine paths.
- ``hang``      — the worker sleeps past the supervision timeout,
  exercising the timeout/abandonment path.
- ``pool_break`` — the worker raises
  :class:`~repro.errors.ExecutorBrokenError`, which the supervisor
  treats exactly like a dead pool: executor fallback
  (process -> thread -> serial).

Beyond worker faults, :func:`corrupt_cache_entry` flips bits in a live
:class:`~repro.sta.scheduler.ScenarioResultCache` (defended by the
cache's integrity verification) and :func:`malform_library` breaks a
library in characteristic ways (defended by the :mod:`repro.validate`
pre-run lint).

Everything is plain data and module-level functions so plans survive
pickling into process-pool workers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutorBrokenError, InjectedFaultError, TimingError

FAULT_KINDS = ("crash", "hang", "pool_break", "kernel_compile")


@dataclass(frozen=True)
class Fault:
    """One planned fault at (task, attempt) coordinates.

    Attributes:
        kind: "crash", "hang", "pool_break" or "kernel_compile".
        task: target task/scenario name, or "*" for any task.
        attempts: 1-based attempt numbers at which to fire. The default
            ``(1,)`` makes retries succeed — the common transient-fault
            shape; ``(1, 2, 3, ...)`` makes a fault persistent enough to
            force quarantine.
        seconds: sleep duration for "hang" faults.
    """

    kind: str
    task: str = "*"
    attempts: Tuple[int, ...] = (1,)
    seconds: float = 0.25

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise TimingError(
                f"unknown fault kind {self.kind!r}; pick from {FAULT_KINDS}"
            )

    @property
    def scope(self) -> str:
        """"worker" for in-attempt faults, "kernel" for compile faults."""
        return "kernel" if self.kind == "kernel_compile" else "worker"

    def matches(self, task: str, attempt: int) -> bool:
        return (self.task in ("*", task)) and attempt in self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults."""

    faults: Tuple[Fault, ...] = ()

    @classmethod
    def of(cls, *faults: Fault) -> "FaultPlan":
        return cls(faults=tuple(faults))

    @classmethod
    def seeded(
        cls,
        seed: int,
        task_names: Sequence[str],
        crash_rate: float = 0.25,
        hang_rate: float = 0.0,
        persistent_rate: float = 0.0,
        hang_seconds: float = 0.25,
        kernel_rate: float = 0.0,
    ) -> "FaultPlan":
        """Draw a reproducible plan over a task list.

        Each task independently gets at most one fault: a transient
        crash (fires on attempt 1 only), a hang (attempt 1 only), with
        ``persistent_rate`` a crash on every attempt, which no retry
        budget survives, forcing quarantine — or, with ``kernel_rate``,
        an injected :class:`~repro.sta.kernel.KernelCompileError` at
        vector-kernel compile time, forcing the reference-engine
        fallback. Same seed + same task list => identical plan, on any
        host.
        """
        rng = np.random.RandomState(seed)
        faults: List[Fault] = []
        for name in task_names:
            u = float(rng.uniform())
            if u < persistent_rate:
                faults.append(Fault("crash", task=name,
                                    attempts=tuple(range(1, 33))))
            elif u < persistent_rate + crash_rate:
                faults.append(Fault("crash", task=name))
            elif u < persistent_rate + crash_rate + hang_rate:
                faults.append(Fault("hang", task=name,
                                    seconds=hang_seconds))
            elif u < (persistent_rate + crash_rate + hang_rate
                      + kernel_rate):
                faults.append(Fault("kernel_compile", task=name))
        return cls(faults=tuple(faults))

    def for_task(self, task: str, attempt: int,
                 scope: str = "worker") -> Optional[Fault]:
        for fault in self.faults:
            if fault.scope == scope and fault.matches(task, attempt):
                return fault
        return None


@dataclass
class FaultInjector:
    """Fires planned faults from inside workers.

    Workers call :meth:`fire` at the top of each attempt; the injector
    raises (crash / pool_break) or sleeps (hang) per the plan. The
    object is plain data, so it pickles into process-pool workers.
    """

    plan: FaultPlan = field(default_factory=FaultPlan)

    def fire(self, task: str, attempt: int) -> None:
        fault = self.plan.for_task(task, attempt, scope="worker")
        if fault is None:
            return
        if fault.kind == "hang":
            time.sleep(fault.seconds)
        elif fault.kind == "crash":
            raise InjectedFaultError(
                "injected worker crash", task=task, attempt=attempt
            )
        elif fault.kind == "pool_break":
            raise ExecutorBrokenError(
                "injected worker-pool death", task=task, attempt=attempt
            )

    def fire_kernel(self, task: str, attempt: int = 1) -> None:
        """Fire a planned kernel-compile fault for ``task``, if any.

        Called by the vector engine's compile sites: the signoff
        scheduler's mode task, once per lane after that lane's worker
        faults (the mode hands either off with its scenarios, which fire
        their worker faults once more in their own tasks), and
        :func:`~repro.sta.kernel.run_on_engine` for a single STA. Raises
        :class:`~repro.sta.kernel.KernelCompileError` exactly like a real
        incongruent-library refusal, so production handling (not a
        test-only path) absorbs it.
        """
        fault = self.plan.for_task(task, attempt, scope="kernel")
        if fault is None:
            return
        from repro.sta.kernel import KernelCompileError

        raise KernelCompileError(
            "injected kernel compile failure", task=task, attempt=attempt
        )


# ---------------------------------------------------------------------- #
# data-corruption faults


def corrupt_cache_entry(cache, seed: int = 0) -> Optional[str]:
    """Silently corrupt one stored report in a ScenarioResultCache.

    Mutates the report's worst endpoint slack to an absurd value —
    exactly the shape of damage a bad memory page or a buggy serializer
    would cause. With ``verify=True`` the cache detects the mutation on
    the next lookup (content digest mismatch) and treats it as a miss.
    Returns the corrupted scenario fingerprint, or None on an empty
    cache.
    """
    keys = sorted(cache._store)
    if not keys:
        return None
    rng = np.random.RandomState(seed)
    key = keys[int(rng.randint(len(keys)))]
    report = cache._store[key].report
    for endpoints in (report.setup, report.hold):
        if endpoints:
            endpoints[0].slack = 1.0e9
            break
    return key[2]


def malform_library(library, seed: int = 0, kind: str = "nan_delay") -> dict:
    """Break a library the way real library handoffs break.

    Kinds:
        ``nan_delay``      — a NaN lands in one cell's delay table
            (half-written filesystem copy, bad characterization run).
        ``negative_delay`` — a delay table goes negative (corrupt
            interpolation / unit mix-up).
        ``drop_pin``       — a pin disappears while arcs still reference
            it (mismatched library/netlist revisions).

    Deterministic under ``seed``. Returns ``{"cell", "kind", "detail"}``
    describing the damage so tests can assert the validator names it.
    """
    cells = sorted(name for name, c in library.cells.items() if c.arcs)
    if not cells:
        raise TimingError("library has no cells with arcs to malform")
    rng = np.random.RandomState(seed)
    cell = library.cells[cells[int(rng.randint(len(cells)))]]

    if kind in ("nan_delay", "negative_delay"):
        arc = next(a for a in cell.arcs if a.timing)
        timing = arc.timing[sorted(arc.timing)[0]]
        value = math.nan if kind == "nan_delay" else -50.0
        timing.delay.values[0, 0] = value
        detail = f"{arc.related_pin}->{arc.pin} delay[0,0] = {value}"
    elif kind == "drop_pin":
        pin = next(p.name for p in cell.input_pins())
        del cell.pins[pin]
        detail = f"removed pin {pin}"
    else:
        raise TimingError(f"unknown malformation kind {kind!r}")
    return {"cell": cell.name, "kind": kind, "detail": detail}
