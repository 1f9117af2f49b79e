"""Adaptive voltage scaling: the minimum supply that closes timing.

An AVS system (monitor circuits + closed-loop regulator) raises the
supply just enough that the (aged) silicon meets its performance target.
We model the controller as a bisection over library voltage: build the
analytic library at (V, delta_vt), run STA, and find the lowest V in the
rail range whose worst setup slack is non-negative.

This is what lets the paper's "signoff at typical" methodology work: the
DC component of margin is gone because voltage, not guardband, absorbs
process/aging slowness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SignoffError
from repro.liberty import LibraryCondition, make_library
from repro.netlist.design import Design
from repro.sta import STA, Constraints


@dataclass
class AvsController:
    """Closed-loop voltage search for one design + constraint set.

    Attributes:
        design: the design under control.
        constraints: timing constraints (the performance target).
        v_min, v_max: rail range, V.
        resolution: voltage step resolution, V.
        process: library process corner for the silicon being regulated
            ("tt" models typical silicon; AVS on slow silicon lands at a
            higher rail).
        temp_c: operating temperature.
        flavors: library flavors (match the design's cells).
    """

    design: Design
    constraints: Constraints
    v_min: float = 0.55
    v_max: float = 1.05
    resolution: float = 0.005
    process: str = "tt"
    temp_c: float = 105.0
    flavors: tuple = ("lvt", "svt", "hvt")

    def wns_at(self, vdd: float, delta_vt: float = 0.0) -> float:
        """Worst setup slack at an operating point."""
        lib = make_library(
            LibraryCondition(
                vdd=vdd,
                temp_c=self.temp_c,
                process=self.process,
                vt_shift_aging=delta_vt,
            ),
            flavors=self.flavors,
        )
        report = STA(self.design, lib, self.constraints).run()
        return report.wns("setup")

    def voltage_for(self, delta_vt: float = 0.0) -> float:
        """The minimum rail voltage that meets timing at a given aging
        state. Raises :class:`SignoffError` when even v_max fails."""
        if self.wns_at(self.v_max, delta_vt) < 0.0:
            raise SignoffError(
                f"timing cannot be met even at {self.v_max} V "
                f"(delta_vt={delta_vt * 1000:.0f} mV)"
            )
        if self.wns_at(self.v_min, delta_vt) >= 0.0:
            return self.v_min
        lo, hi = self.v_min, self.v_max
        while hi - lo > self.resolution:
            mid = 0.5 * (lo + hi)
            if self.wns_at(mid, delta_vt) >= 0.0:
                hi = mid
            else:
                lo = mid
        return hi
