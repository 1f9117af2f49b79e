"""Transistor-level standard-gate builders.

These functions instantiate CMOS gates inside a
:class:`repro.spice.network.Circuit`: static complementary INV/NAND/NOR/
AOI21/OAI21 plus a six-NAND positive-edge D flip-flop (the classic 7474
topology). The flip-flop's cross-coupled NAND loop is what produces the
paper's Fig 10 interdependency between setup time, hold time and
clock-to-q delay.

Widths follow standard practice: PMOS widths are ``beta`` times NMOS
widths (mobility compensation) and series stacks are upsized by the stack
height so all gates have roughly inverter-equivalent drive per unit
``size``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.errors import SimulationError
from repro.spice.devices import MosParams, NMOS_16NM, PMOS_16NM, Transistor
from repro.spice.network import GROUND, Circuit

DEFAULT_BETA = 1.8


@dataclass
class GateInstance:
    """Handle for a gate added to a circuit."""

    name: str
    kind: str
    inputs: List[str]
    output: str
    transistors: List[Transistor] = field(default_factory=list)


def _attach(circuit: Circuit, fet: Transistor) -> Transistor:
    """Add parasitic gate and junction caps for a placed transistor."""
    circuit.add_capacitor(fet.gate, GROUND, fet.gate_capacitance())
    circuit.add_capacitor(fet.drain, GROUND, fet.junction_capacitance())
    circuit.add_capacitor(fet.source, GROUND, 0.5 * fet.junction_capacitance())
    return fet


def add_inverter(
    circuit: Circuit,
    name: str,
    inp: str,
    out: str,
    vdd_node: str = "vdd",
    size: float = 1.0,
    nmos: MosParams = NMOS_16NM,
    pmos: MosParams = PMOS_16NM,
    beta: float = DEFAULT_BETA,
) -> GateInstance:
    """Add a static CMOS inverter."""
    gate = GateInstance(name=name, kind="inv", inputs=[inp], output=out)
    gate.transistors.append(
        _attach(circuit, circuit.add_transistor(out, inp, GROUND, nmos, size, name=f"{name}.mn"))
    )
    gate.transistors.append(
        _attach(circuit, circuit.add_transistor(out, inp, vdd_node, pmos, beta * size, name=f"{name}.mp"))
    )
    return gate


def add_nand(
    circuit: Circuit,
    name: str,
    inputs: Sequence[str],
    out: str,
    vdd_node: str = "vdd",
    size: float = 1.0,
    nmos: MosParams = NMOS_16NM,
    pmos: MosParams = PMOS_16NM,
    beta: float = DEFAULT_BETA,
) -> GateInstance:
    """Add an n-input NAND (series NMOS stack, parallel PMOS)."""
    n = len(inputs)
    if n < 2:
        raise SimulationError("NAND needs at least two inputs")
    gate = GateInstance(name=name, kind=f"nand{n}", inputs=list(inputs), output=out)
    wn = size * n  # upsize the series stack
    node = GROUND
    # NMOS stack from ground up to the output; input[0] nearest the output.
    for i in range(n - 1, -1, -1):
        upper = out if i == 0 else circuit.node(f"{name}.s{i}")
        gate.transistors.append(
            _attach(
                circuit,
                circuit.add_transistor(upper, inputs[i], node, nmos, wn, name=f"{name}.mn{i}"),
            )
        )
        node = upper
    for i, inp in enumerate(inputs):
        gate.transistors.append(
            _attach(
                circuit,
                circuit.add_transistor(out, inp, vdd_node, pmos, beta * size, name=f"{name}.mp{i}"),
            )
        )
    return gate


def add_nor(
    circuit: Circuit,
    name: str,
    inputs: Sequence[str],
    out: str,
    vdd_node: str = "vdd",
    size: float = 1.0,
    nmos: MosParams = NMOS_16NM,
    pmos: MosParams = PMOS_16NM,
    beta: float = DEFAULT_BETA,
) -> GateInstance:
    """Add an n-input NOR (parallel NMOS, series PMOS stack)."""
    n = len(inputs)
    if n < 2:
        raise SimulationError("NOR needs at least two inputs")
    gate = GateInstance(name=name, kind=f"nor{n}", inputs=list(inputs), output=out)
    wp = beta * size * n
    node = vdd_node
    for i in range(n - 1, -1, -1):
        lower = out if i == 0 else circuit.node(f"{name}.s{i}")
        gate.transistors.append(
            _attach(
                circuit,
                circuit.add_transistor(lower, inputs[i], node, pmos, wp, name=f"{name}.mp{i}"),
            )
        )
        node = lower
    for i, inp in enumerate(inputs):
        gate.transistors.append(
            _attach(
                circuit,
                circuit.add_transistor(out, inp, GROUND, nmos, size, name=f"{name}.mn{i}"),
            )
        )
    return gate


def add_aoi21(
    circuit: Circuit,
    name: str,
    a1: str,
    a2: str,
    b: str,
    out: str,
    vdd_node: str = "vdd",
    size: float = 1.0,
    nmos: MosParams = NMOS_16NM,
    pmos: MosParams = PMOS_16NM,
    beta: float = DEFAULT_BETA,
) -> GateInstance:
    """Add an AOI21 gate: out = not((a1 and a2) or b)."""
    gate = GateInstance(name=name, kind="aoi21", inputs=[a1, a2, b], output=out)
    mid_n = circuit.node(f"{name}.sn")
    mid_p = circuit.node(f"{name}.sp")
    wn = 2.0 * size
    wp = 2.0 * beta * size
    add = gate.transistors.append
    # Pull-down: (a1 series a2) parallel b.
    add(_attach(circuit, circuit.add_transistor(out, a1, mid_n, nmos, wn, name=f"{name}.mn_a1")))
    add(_attach(circuit, circuit.add_transistor(mid_n, a2, GROUND, nmos, wn, name=f"{name}.mn_a2")))
    add(_attach(circuit, circuit.add_transistor(out, b, GROUND, nmos, size, name=f"{name}.mn_b")))
    # Pull-up: (a1 parallel a2) series b.
    add(_attach(circuit, circuit.add_transistor(mid_p, a1, vdd_node, pmos, wp, name=f"{name}.mp_a1")))
    add(_attach(circuit, circuit.add_transistor(mid_p, a2, vdd_node, pmos, wp, name=f"{name}.mp_a2")))
    add(_attach(circuit, circuit.add_transistor(out, b, mid_p, pmos, wp, name=f"{name}.mp_b")))
    return gate


def add_oai21(
    circuit: Circuit,
    name: str,
    a1: str,
    a2: str,
    b: str,
    out: str,
    vdd_node: str = "vdd",
    size: float = 1.0,
    nmos: MosParams = NMOS_16NM,
    pmos: MosParams = PMOS_16NM,
    beta: float = DEFAULT_BETA,
) -> GateInstance:
    """Add an OAI21 gate: out = not((a1 or a2) and b)."""
    gate = GateInstance(name=name, kind="oai21", inputs=[a1, a2, b], output=out)
    mid_n = circuit.node(f"{name}.sn")
    mid_p = circuit.node(f"{name}.sp")
    wn = 2.0 * size
    wp = 2.0 * beta * size
    add = gate.transistors.append
    # Pull-down: (a1 parallel a2) series b.
    add(_attach(circuit, circuit.add_transistor(mid_n, a1, GROUND, nmos, wn, name=f"{name}.mn_a1")))
    add(_attach(circuit, circuit.add_transistor(mid_n, a2, GROUND, nmos, wn, name=f"{name}.mn_a2")))
    add(_attach(circuit, circuit.add_transistor(out, b, mid_n, nmos, wn, name=f"{name}.mn_b")))
    # Pull-up: (a1 series a2) parallel b.
    add(_attach(circuit, circuit.add_transistor(out, a1, mid_p, pmos, wp, name=f"{name}.mp_a1")))
    add(_attach(circuit, circuit.add_transistor(mid_p, a2, vdd_node, pmos, wp, name=f"{name}.mp_a2")))
    add(_attach(circuit, circuit.add_transistor(out, b, vdd_node, pmos, beta * size, name=f"{name}.mp_b")))
    return gate


def add_dff(
    circuit: Circuit,
    name: str,
    d: str,
    clk: str,
    q: str,
    qb: str = "",
    vdd_node: str = "vdd",
    size: float = 1.0,
    nmos: MosParams = NMOS_16NM,
    pmos: MosParams = PMOS_16NM,
    beta: float = DEFAULT_BETA,
) -> GateInstance:
    """Add a positive-edge D flip-flop (six-NAND 7474 topology).

    The topology:

    - ``n1 = NAND(n4, n2)``
    - ``n2 = NAND(n1, clk)``
    - ``n3 = NAND(n2, clk, n4)``
    - ``n4 = NAND(n3, d)``
    - ``q  = NAND(n2, qb)``
    - ``qb = NAND(q,  n3)``
    """
    qb = qb or circuit.node(f"{name}.qb")
    n1 = circuit.node(f"{name}.n1")
    n2 = circuit.node(f"{name}.n2")
    n3 = circuit.node(f"{name}.n3")
    n4 = circuit.node(f"{name}.n4")
    gate = GateInstance(name=name, kind="dff", inputs=[d, clk], output=q)
    kw = dict(vdd_node=vdd_node, size=size, nmos=nmos, pmos=pmos, beta=beta)
    for sub in (
        add_nand(circuit, f"{name}.g1", [n4, n2], n1, **kw),
        add_nand(circuit, f"{name}.g2", [n1, clk], n2, **kw),
        add_nand(circuit, f"{name}.g3", [n2, clk, n4], n3, **kw),
        add_nand(circuit, f"{name}.g4", [n3, d], n4, **kw),
        add_nand(circuit, f"{name}.g5", [n2, qb], q, **kw),
        add_nand(circuit, f"{name}.g6", [q, n3], qb, **kw),
    ):
        gate.transistors.extend(sub.transistors)
    return gate


GATE_BUILDERS = {
    "inv": add_inverter,
    "nand": add_nand,
    "nor": add_nor,
    "aoi21": add_aoi21,
    "oai21": add_oai21,
    "dff": add_dff,
}
