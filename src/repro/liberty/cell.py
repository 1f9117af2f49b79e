"""Cells and pins.

A :class:`Cell` groups pins, timing arcs, area, leakage and the metadata
used by closure optimizations: its *footprint* (interchangeable layout
family, e.g. every NAND2 drive/Vt variant shares footprint ``"nand2"``),
its drive ``size`` and its threshold ``vt_flavor``. Vt-swap changes
``vt_flavor`` within a footprint+size; gate sizing changes ``size`` within
a footprint+flavor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import LibraryError
from repro.liberty.arcs import TimingArc, TimingType


class PinDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


@dataclass
class Pin:
    """A cell pin.

    Attributes:
        name: pin name (e.g. ``"A"``, ``"ZN"``, ``"CK"``).
        direction: input or output.
        capacitance: input pin capacitance in fF (0 for outputs).
        is_clock: True for clock pins of sequential cells.
        max_transition: signoff slew limit at this pin, ps (None = library
            default).
        max_capacitance: drive limit for output pins, fF.
    """

    name: str
    direction: PinDirection
    capacitance: float = 0.0
    is_clock: bool = False
    max_transition: Optional[float] = None
    max_capacitance: Optional[float] = None


@dataclass
class Cell:
    """One library cell."""

    name: str
    footprint: str
    size: float
    vt_flavor: str
    area: float
    leakage: float  # mW at library voltage/temperature
    pins: Dict[str, Pin] = field(default_factory=dict)
    arcs: List[TimingArc] = field(default_factory=list)
    function: str = ""
    is_sequential: bool = False

    # ------------------------------------------------------------------ #
    # pin queries

    def pin(self, name: str) -> Pin:
        try:
            return self.pins[name]
        except KeyError:
            raise LibraryError(f"cell {self.name} has no pin {name!r}") from None

    def input_pins(self) -> List[Pin]:
        return [p for p in self.pins.values() if p.direction is PinDirection.INPUT]

    def output_pins(self) -> List[Pin]:
        return [p for p in self.pins.values() if p.direction is PinDirection.OUTPUT]

    def clock_pin(self) -> Optional[Pin]:
        for p in self.pins.values():
            if p.is_clock:
                return p
        return None

    def input_capacitance(self, pin_name: str) -> float:
        return self.pin(pin_name).capacitance

    # ------------------------------------------------------------------ #
    # arc queries

    def delay_arcs(self) -> List[TimingArc]:
        return [a for a in self.arcs if a.timing_type.is_delay]

    def arcs_to(self, output_pin: str) -> List[TimingArc]:
        return [a for a in self.arcs if a.pin == output_pin and a.timing_type.is_delay]

    def arc_between(self, related_pin: str, pin: str,
                    timing_type: Optional[TimingType] = None) -> TimingArc:
        for a in self.arcs:
            if a.related_pin == related_pin and a.pin == pin:
                if timing_type is None or a.timing_type is timing_type:
                    return a
        raise LibraryError(
            f"cell {self.name} has no arc {related_pin}->{pin}"
            + (f" of type {timing_type.value}" if timing_type else "")
        )

    def __repr__(self) -> str:
        return f"Cell({self.name}, {len(self.pins)} pins, {len(self.arcs)} arcs)"
