"""The gate-level netlist data model.

A :class:`Design` is a flat netlist of cell :class:`Instance` objects
connected by :class:`Net` objects, with top-level ports. Cell references
are *names* resolved against a :class:`repro.liberty.library.Library` at
analysis time, so one netlist can be timed against many MCMM libraries.

Instances carry optional placement locations (um) used by parasitic
synthesis and by distance-aware AOCV derating.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import NetlistError
from repro.liberty.cell import PinDirection
from repro.liberty.library import Library


class PortDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


@dataclass(frozen=True)
class PinRef:
    """A reference to an instance pin, or to a top-level port.

    Ports are modeled as pins of the pseudo-instance ``""`` so that net
    drivers/loads are uniform.
    """

    instance: str
    pin: str

    @property
    def is_port(self) -> bool:
        return self.instance == ""

    def __str__(self) -> str:
        return self.pin if self.is_port else f"{self.instance}/{self.pin}"


@dataclass
class Instance:
    """One placed cell instance."""

    name: str
    cell_name: str
    connections: Dict[str, str] = field(default_factory=dict)  # pin -> net
    location: Optional[Tuple[float, float]] = None  # (x, y) um
    dont_touch: bool = False

    def net_of(self, pin: str) -> str:
        try:
            return self.connections[pin]
        except KeyError:
            raise NetlistError(
                f"instance {self.name} has no connection on pin {pin!r}"
            ) from None


@dataclass
class Net:
    """One net: a single driver pin and its load pins."""

    name: str
    driver: Optional[PinRef] = None
    loads: List[PinRef] = field(default_factory=list)
    ndr: bool = False  # non-default routing rule (wider/spaced wires)
    extra_cap: float = 0.0  # fF added by optimization bookkeeping

    @property
    def fanout(self) -> int:
        return len(self.loads)

    def pins(self) -> List[PinRef]:
        refs = list(self.loads)
        if self.driver is not None:
            refs.insert(0, self.driver)
        return refs


class Design:
    """A flat gate-level design."""

    def __init__(self, name: str):
        self.name = name
        self.instances: Dict[str, Instance] = {}
        self.nets: Dict[str, Net] = {}
        self.ports: Dict[str, PortDirection] = {}
        self._uid = 0

    # ------------------------------------------------------------------ #
    # construction

    def add_port(self, name: str, direction: PortDirection) -> str:
        if name in self.ports:
            raise NetlistError(f"duplicate port {name!r}")
        self.ports[name] = direction
        net = self.net(name)  # a port implies a same-named net
        ref = PinRef("", name)
        if direction is PortDirection.INPUT:
            if net.driver is not None:
                raise NetlistError(f"net {name!r} already has a driver")
            net.driver = ref
        else:
            net.loads.append(ref)
        return name

    def net(self, name: str) -> Net:
        """Get or create a net."""
        if name not in self.nets:
            self.nets[name] = Net(name)
        return self.nets[name]

    def add_instance(
        self,
        name: str,
        cell_name: str,
        connections: Dict[str, str],
        location: Optional[Tuple[float, float]] = None,
    ) -> Instance:
        """Add an instance; ``connections`` maps pin names to net names.

        Net driver/load roles are resolved later in :meth:`bind`, because
        pin directions live in the library.
        """
        if name in self.instances:
            raise NetlistError(f"duplicate instance {name!r}")
        inst = Instance(name=name, cell_name=cell_name,
                        connections=dict(connections), location=location)
        self.instances[name] = inst
        for net_name in connections.values():
            self.net(net_name)
        return inst

    def bind(self, library: Library) -> None:
        """Resolve pin directions against a library and build net
        driver/load lists. Must be called after construction and after any
        structural edit (transforms call it for you).

        The new lists are built on the side and only nets whose driver or
        (ordered) loads differ are written, so a bind that raises leaves
        the design as it was, and a rebind with a library that agrees on
        pin directions writes nothing. Every library of a scenario set
        agrees, which is what lets concurrent analyses of one design
        share it: no reader ever sees a net mid-rebuild.
        """
        drivers: Dict[str, Optional[PinRef]] = {}
        loads: Dict[str, List[PinRef]] = {}
        for name, net in self.nets.items():
            driver = net.driver
            drivers[name] = driver if driver and driver.is_port else None
            loads[name] = [l for l in net.loads if l.is_port]
        for inst in self.instances.values():
            cell = library.cell(inst.cell_name)
            for pin_name, net_name in inst.connections.items():
                pin = cell.pin(pin_name)
                if net_name not in loads:
                    drivers[net_name] = None
                    loads[net_name] = []
                ref = PinRef(inst.name, pin_name)
                if pin.direction is PinDirection.OUTPUT:
                    driver = drivers[net_name]
                    if driver is not None and driver != ref:
                        raise NetlistError(
                            f"net {net_name!r} has multiple drivers: "
                            f"{driver} and {ref}"
                        )
                    drivers[net_name] = ref
                else:
                    loads[net_name].append(ref)
        for name, net_loads in loads.items():
            net = self.nets.get(name) or self.net(name)
            if net.driver != drivers[name]:
                net.driver = drivers[name]
            if net.loads != net_loads:
                net.loads = net_loads

    def validate(self, library: Library) -> None:
        """Check structural sanity: every net driven, every pin connected."""
        for inst in self.instances.values():
            cell = library.cell(inst.cell_name)
            for pin in cell.pins.values():
                if pin.name not in inst.connections:
                    raise NetlistError(
                        f"instance {inst.name} leaves pin {pin.name} unconnected"
                    )
        for net in self.nets.values():
            if net.driver is None and net.loads:
                raise NetlistError(f"net {net.name!r} has loads but no driver")

    # ------------------------------------------------------------------ #
    # queries

    def instance(self, name: str) -> Instance:
        try:
            return self.instances[name]
        except KeyError:
            raise NetlistError(f"no instance {name!r} in design {self.name}") from None

    def get_net(self, name: str) -> Net:
        try:
            return self.nets[name]
        except KeyError:
            raise NetlistError(f"no net {name!r} in design {self.name}") from None

    def input_ports(self) -> List[str]:
        return [p for p, d in self.ports.items() if d is PortDirection.INPUT]

    def output_ports(self) -> List[str]:
        return [p for p, d in self.ports.items() if d is PortDirection.OUTPUT]

    def sequential_instances(self, library: Library) -> List[Instance]:
        return [
            inst
            for inst in self.instances.values()
            if library.cell(inst.cell_name).is_sequential
        ]

    def combinational_instances(self, library: Library) -> List[Instance]:
        return [
            inst
            for inst in self.instances.values()
            if not library.cell(inst.cell_name).is_sequential
        ]

    def total_area(self, library: Library) -> float:
        return sum(library.cell(i.cell_name).area for i in self.instances.values())

    def total_leakage(self, library: Library) -> float:
        return sum(
            library.cell(i.cell_name).leakage for i in self.instances.values()
        )

    def net_hpwl(self, net_name: str) -> float:
        """Half-perimeter wirelength of a net from instance locations, um.

        Unplaced pins are skipped; a net with fewer than two located pins
        has zero HPWL.
        """
        net = self.get_net(net_name)
        xs, ys = [], []
        for ref in net.pins():
            if ref.is_port:
                continue
            loc = self.instance(ref.instance).location
            if loc is not None:
                xs.append(loc[0])
                ys.append(loc[1])
        if len(xs) < 2:
            return 0.0
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def unique_name(self, prefix: str) -> str:
        """A fresh instance/net name with the given prefix."""
        while True:
            self._uid += 1
            candidate = f"{prefix}_{self._uid}"
            if candidate not in self.instances and candidate not in self.nets:
                return candidate

    def stats(self) -> Dict[str, int]:
        return {
            "instances": len(self.instances),
            "nets": len(self.nets),
            "ports": len(self.ports),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"Design({self.name!r}, {s['instances']} instances, "
            f"{s['nets']} nets, {s['ports']} ports)"
        )
