"""Circuit container for the analytical simulator.

A :class:`Circuit` is a flat netlist of transistors, resistors, capacitors
and voltage sources over named nodes. The ground node is ``"0"`` and is
always present, fixed at 0 V.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import SimulationError
from repro.spice.devices import MosParams, Transistor
from repro.spice.stimulus import Constant, Waveform

GROUND = "0"


@dataclass
class _Resistor:
    node_a: str
    node_b: str
    kohm: float


@dataclass
class _Capacitor:
    node_a: str
    node_b: str
    ff: float


class Circuit:
    """A flat transistor-level circuit.

    Nodes are created implicitly by the element-adding methods. Voltage
    sources pin a node to a waveform; all other nodes are solved by the
    transient/DC engines.
    """

    #: Minimum grounded capacitance added to every non-source node so the
    #: Backward-Euler system is never singular (fF).
    MIN_NODE_CAP = 0.01

    def __init__(self, name: str = "circuit", temp_c: float = 25.0):
        self.name = name
        self.temp_c = temp_c
        self.transistors: List[Transistor] = []
        self.resistors: List[_Resistor] = []
        self.capacitors: List[_Capacitor] = []
        self.sources: Dict[str, Waveform] = {}
        self._nodes: Dict[str, None] = {GROUND: None}  # insertion-ordered set

    # ------------------------------------------------------------------ #
    # construction

    def node(self, name: str) -> str:
        """Register (or re-register) a node and return its name."""
        if not name:
            raise SimulationError("node name must be non-empty")
        self._nodes[name] = None
        return name

    @property
    def nodes(self) -> List[str]:
        """All node names, ground first, in insertion order."""
        return list(self._nodes)

    def add_transistor(
        self,
        drain: str,
        gate: str,
        source: str,
        params: MosParams,
        width: float = 1.0,
        vt_shift: float = 0.0,
        k_scale: float = 1.0,
        name: str = "",
    ) -> Transistor:
        """Add a MOSFET; junction/gate caps are *not* added automatically
        (gate builders add them so testbenches stay explicit)."""
        for n in (drain, gate, source):
            self.node(n)
        t = Transistor(
            drain=drain,
            gate=gate,
            source=source,
            params=params,
            width=width,
            vt_shift=vt_shift,
            k_scale=k_scale,
            name=name or f"M{len(self.transistors)}",
        )
        self.transistors.append(t)
        return t

    def add_resistor(self, node_a: str, node_b: str, kohm: float) -> None:
        """Add a linear resistor between two nodes (kohm)."""
        if kohm <= 0.0:
            raise SimulationError(f"resistance must be positive, got {kohm}")
        self.node(node_a)
        self.node(node_b)
        self.resistors.append(_Resistor(node_a, node_b, kohm))

    def add_capacitor(self, node_a: str, node_b: str, ff: float) -> None:
        """Add a linear capacitor between two nodes (fF). Use node ``"0"``
        for a grounded capacitor."""
        if ff < 0.0:
            raise SimulationError(f"capacitance must be non-negative, got {ff}")
        self.node(node_a)
        self.node(node_b)
        self.capacitors.append(_Capacitor(node_a, node_b, ff))

    def add_source(self, node: str, waveform: Waveform) -> None:
        """Pin ``node`` to a voltage waveform."""
        self.node(node)
        self.sources[node] = waveform

    def add_vdd(self, level: float, node: str = "vdd") -> str:
        """Convenience: add a DC supply and return its node name."""
        self.add_source(node, Constant(level))
        return node

    # ------------------------------------------------------------------ #
    # queries

    def unknown_nodes(self) -> List[str]:
        """Nodes whose voltage the solver must compute."""
        return [n for n in self._nodes if n != GROUND and n not in self.sources]

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, nodes={len(self._nodes)}, "
            f"fets={len(self.transistors)}, R={len(self.resistors)}, "
            f"C={len(self.capacitors)}, sources={len(self.sources)})"
        )
