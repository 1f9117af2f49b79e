"""Deterministic batch evaluation of Monte Carlo samples.

Every sample draws from its own generator, spawned from the master seed
by sample index, and runs as one supervised task; the results are
therefore identical for any ``jobs`` count or executor flavor. The
device-level Monte Carlo (:mod:`repro.variation.montecarlo`) fans its
path-delay samples out through :func:`evaluate_samples`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List

import numpy as np

from repro.runtime.supervisor import (
    RetryPolicy,
    SupervisedExecutor,
    SupervisedTask,
)


def sample_seeds(seed: int, n_samples: int) -> List[np.random.SeedSequence]:
    """One independent child seed per MC sample.

    ``numpy.random.SeedSequence.spawn`` gives every sample its own
    statistically independent stream derived only from (seed, index) —
    *not* from how samples are batched over workers — so serial and
    parallel evaluation of the same seed are bit-identical.
    """
    return np.random.SeedSequence(seed).spawn(n_samples)


def evaluate_samples(
    evaluate: Callable[[int, np.random.Generator], object],
    n_samples: int,
    seed: int = 0,
    jobs: int = 1,
    executor: str = "thread",
) -> List[object]:
    """Evaluate ``evaluate(index, rng)`` for every sample, batched.

    Each sample is one supervised task without retries
    (:class:`~repro.runtime.supervisor.SupervisedExecutor`); results come
    back in sample order and each sample's generator is spawned from the
    master seed, so the output is independent of ``jobs``/``executor``.
    The first failed sample raises its
    :class:`~repro.errors.TaskDegradedError`.
    """
    one = partial(_evaluate_one, evaluate)
    executions = SupervisedExecutor(
        jobs=jobs, executor=executor, policy=RetryPolicy(retries=0),
    ).run([
        SupervisedTask(f"sample-{index}", one, (index, child))
        for index, child in enumerate(sample_seeds(seed, n_samples))
    ])
    for execution in executions:
        if not execution.ok:
            raise execution.error
    return [execution.result for execution in executions]


def _evaluate_one(evaluate, sample, attempt: int = 1):
    """Module-level so process pools can pickle the partial application."""
    index, child = sample
    return evaluate(index, np.random.default_rng(child))
