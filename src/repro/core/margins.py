"""Flat-margin stackup and margin recovery.

The paper's footnote 5: flat margins "model what cannot be modeled" —
PLL jitter, CTS jitter, foundry-dictated jitter margin and dynamic IR
drop are "all swept under a single jitter margin rug", with clear
opportunities to detangle them. This module makes the stackup explicit:
named components, RSS-vs-linear accumulation (linear = today's practice,
RSS = the detangled opportunity), and recovery transforms (AVS removes
the DC aging component; cycle-to-cycle jitter accounting shrinks the
jitter term).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import SignoffError

#: Which components correlate enough that linear addition is honest.
DEFAULT_COMPONENTS: Dict[str, float] = {
    "pll_jitter": 8.0,
    "cts_jitter": 5.0,
    "foundry_jitter_margin": 6.0,
    "ir_drop": 12.0,
    "aging_dc": 15.0,
    "model_error": 8.0,
    "si_residual": 4.0,
}


@dataclass
class MarginStackup:
    """A named flat-margin budget (all ps)."""

    components: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_COMPONENTS)
    )

    def __post_init__(self):
        for name, value in self.components.items():
            if value < 0.0:
                raise SignoffError(f"margin component {name} is negative")

    def linear_total(self) -> float:
        """Today's practice: one flat number, linearly accumulated."""
        return sum(self.components.values())

    def rss_total(self) -> float:
        """The detangled alternative: independent components add in RSS."""
        return math.sqrt(sum(v * v for v in self.components.values()))

    def pessimism(self) -> float:
        """Margin recoverable by detangling (linear minus RSS)."""
        return self.linear_total() - self.rss_total()

    # ------------------------------------------------------------------ #
    # recovery transforms

    def with_avs(self) -> "MarginStackup":
        """AVS removes the DC aging component (Section 1.3: 'AVS removes
        a DC component of timing margin')."""
        out = dict(self.components)
        out["aging_dc"] = 0.0
        return MarginStackup(out)

    def with_cycle_jitter_accounting(self, factor: float = 0.5) -> "MarginStackup":
        """Cycle-to-cycle jitter analysis scales the jitter components
        (consecutive short clock pulses are unlikely — Section 3.4)."""
        if not 0.0 <= factor <= 1.0:
            raise SignoffError("jitter factor must be in [0, 1]")
        out = dict(self.components)
        for key in ("pll_jitter", "cts_jitter", "foundry_jitter_margin"):
            if key in out:
                out[key] *= factor
        return MarginStackup(out)

    def with_dynamic_ir_analysis(self, residual: float = 3.0) -> "MarginStackup":
        """'-dynamic' IR analysis replaces the flat IR margin with a
        small residual."""
        out = dict(self.components)
        out["ir_drop"] = min(out.get("ir_drop", 0.0), residual)
        return MarginStackup(out)

    def table(self) -> str:
        lines = [f"{'component':<24} {'ps':>7}"]
        for name, value in sorted(self.components.items()):
            lines.append(f"{name:<24} {value:7.1f}")
        lines.append(f"{'linear total':<24} {self.linear_total():7.1f}")
        lines.append(f"{'RSS total':<24} {self.rss_total():7.1f}")
        return "\n".join(lines)


def recovery_ladder(base: MarginStackup) -> List[Tuple[str, float]]:
    """The margin left after each successive recovery step — the
    'relentless pursuit of margin recovery' as a sequence."""
    steps = [("baseline (linear)", base.linear_total())]
    current = base
    current = current.with_avs()
    steps.append(("+ AVS (drop DC aging)", current.linear_total()))
    current = current.with_dynamic_ir_analysis()
    steps.append(("+ dynamic IR analysis", current.linear_total()))
    current = current.with_cycle_jitter_accounting()
    steps.append(("+ cycle-to-cycle jitter", current.linear_total()))
    steps.append(("+ detangled RSS", current.rss_total()))
    return steps
