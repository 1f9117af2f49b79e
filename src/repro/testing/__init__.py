"""Deterministic chaos-testing utilities for the fault-tolerant runtime."""

from repro.testing.faults import (
    FAULT_KINDS,
    Fault,
    FaultInjector,
    FaultPlan,
    corrupt_cache_entry,
    malform_library,
)

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "corrupt_cache_entry",
    "malform_library",
]
