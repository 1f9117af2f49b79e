"""Fault-tolerant execution runtime.

Long MCMM signoff batches (the paper's Section 2.3 corner
super-explosion: O(10^2) views per run) turn rare per-scenario failures
into near-certain batch failures. This package converts those failures
into bounded recovery cost instead of full reruns:

- :mod:`repro.runtime.supervisor` — per-task timeouts, retry with
  exponential backoff, DEGRADED tasks instead of an aborted batch and
  automatic executor fallback (process -> thread -> serial) when a pool
  itself dies.
- :mod:`repro.runtime.journal` — an append-only on-disk journal so a
  killed run resumes from its completed tasks.
"""

from repro.runtime.journal import RunJournal
from repro.runtime.supervisor import (
    RetryPolicy,
    SupervisedExecutor,
    SupervisedTask,
    TaskExecution,
    TaskStatus,
)

__all__ = [
    "RetryPolicy",
    "RunJournal",
    "SupervisedExecutor",
    "SupervisedTask",
    "TaskExecution",
    "TaskStatus",
]
