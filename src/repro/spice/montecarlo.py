"""Process-variation sampling for device-level Monte Carlo studies.

Variation is decomposed the way signoff methodology decomposes it (and the
way the paper's SSG-vs-SS discussion frames it): a *global* (die-to-die)
component shared by every device of a polarity, plus a *local* (on-die
mismatch) component independent per device. Only two device knobs are
perturbed — threshold shift and current-factor scale — matching the
``vt_shift`` / ``k_scale`` hooks of :class:`repro.spice.devices.Transistor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Sequence

import numpy as np

from repro.runtime.supervisor import (
    RetryPolicy,
    SupervisedExecutor,
    SupervisedTask,
)
from repro.spice.network import Circuit


@dataclass(frozen=True)
class VariationSpec:
    """Standard deviations of the variation components.

    Attributes:
        sigma_vt_global: die-to-die threshold sigma, volts.
        sigma_vt_local: per-device mismatch threshold sigma, volts. Scaled
            by ``1/sqrt(width)`` per Pelgrom's law.
        sigma_k_global: die-to-die relative current-factor sigma.
        sigma_k_local: per-device relative current-factor sigma, also
            Pelgrom-scaled.
    """

    sigma_vt_global: float = 0.015
    sigma_vt_local: float = 0.020
    sigma_k_global: float = 0.03
    sigma_k_local: float = 0.02


def perturb_circuit(
    circuit: Circuit,
    rng: np.random.Generator,
    spec: VariationSpec = VariationSpec(),
) -> None:
    """Apply one Monte Carlo sample to every transistor, in place.

    Global components are sampled once per polarity (NMOS and PMOS vary
    independently die-to-die); local components once per device.
    """
    g_vt = {+1: rng.normal(0.0, spec.sigma_vt_global),
            -1: rng.normal(0.0, spec.sigma_vt_global)}
    g_k = {+1: rng.normal(0.0, spec.sigma_k_global),
           -1: rng.normal(0.0, spec.sigma_k_global)}
    for fet in circuit.transistors:
        pol = fet.params.polarity
        pelgrom = 1.0 / np.sqrt(max(fet.width, 1e-6))
        fet.vt_shift += g_vt[pol] + rng.normal(0.0, spec.sigma_vt_local * pelgrom)
        fet.k_scale *= max(
            0.05,
            1.0 + g_k[pol] + rng.normal(0.0, spec.sigma_k_local * pelgrom),
        )


def reset_variation(circuit: Circuit) -> None:
    """Remove all variation (restore nominal vt_shift/k_scale)."""
    for fet in circuit.transistors:
        fet.vt_shift = 0.0
        fet.k_scale = 1.0


# ---------------------------------------------------------------------- #
# deterministic batch evaluation


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
