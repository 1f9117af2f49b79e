"""Deterministic synthetic benchmark generators.

The paper's Fig 9 evaluates c5315, c7552, AES and MPEG2 implementations;
we have no access to those netlists or to a synthesis flow, so these
generators produce circuits with comparable structure:

- :func:`random_logic` — leveled random DAGs (the ISCAS-85-like profile:
  wide, moderately deep random control logic) wrapped in launch/capture
  flops;
- :func:`aes_like` — byte-sliced S-box clouds plus mixing layers between
  register stages (deep, narrow critical paths, highly uniform);
- :func:`mpeg2_like` — ripple-carry adder datapaths (very deep carry
  chains) plus a control cloud (a bimodal path-depth profile);
- :func:`tiny_design` — a hand-built few-gate design for unit tests.

All generators are seeded and fully deterministic, assign a grid placement
(used by parasitic synthesis and AOCV distance), and wire one ideal
``clk`` net to every flop; clock-tree synthesis can replace it later.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.errors import NetlistError
from repro.netlist.design import Design, PortDirection

# Gate menu with rough synthesis-mix weights.
_GATE_MENU = (
    ("inv", ("A",), 0.18),
    ("nand2", ("A", "B"), 0.30),
    ("nor2", ("A", "B"), 0.18),
    ("nand3", ("A", "B", "C"), 0.10),
    ("nor3", ("A", "B", "C"), 0.06),
    ("aoi21", ("A1", "A2", "B"), 0.09),
    ("oai21", ("A1", "A2", "B"), 0.09),
)

ROW_PITCH = 1.4  # um
COL_PITCH = 6.0  # um


def _cell_name(footprint: str, size: float, flavor: str) -> str:
    return f"{footprint.upper()}_X{size:g}_{flavor.upper()}"


def _grid_location(col: int, row: int) -> Tuple[float, float]:
    return (col * COL_PITCH, row * ROW_PITCH)


def random_logic(
    name: str = "rand",
    n_inputs: int = 32,
    n_outputs: int = 32,
    n_gates: int = 500,
    n_levels: int = 12,
    seed: int = 1,
    flavor: str = "svt",
    sizes: Sequence[float] = (1.0, 2.0),
) -> Design:
    """A leveled random combinational cloud between launch/capture flops.

    Structure: input port -> launch DFF -> ``n_levels`` of random gates ->
    capture DFF -> output port, plus an ideal ``clk`` net. Gates at level
    ``l`` draw inputs from levels ``< l`` with a bias toward the
    immediately preceding level, which yields long sensitizable paths.
    """
    if n_levels < 1 or n_gates < n_levels:
        raise NetlistError("need at least one gate per level")
    rng = random.Random(seed)
    design = Design(name)
    design.add_port("clk", PortDirection.INPUT)

    # Launch flops.
    level_signals: List[List[str]] = [[]]
    for i in range(n_inputs):
        port = design.add_port(f"in{i}", PortDirection.INPUT)
        q_net = f"lq{i}"
        design.add_instance(
            f"ff_in{i}",
            _cell_name("dff", 1.0, flavor),
            {"D": port, "CK": "clk", "Q": q_net},
            location=_grid_location(0, i),
        )
        level_signals[0].append(q_net)

    # Random gate levels.
    per_level = [n_gates // n_levels] * n_levels
    for i in range(n_gates - sum(per_level)):
        per_level[i % n_levels] += 1
    gate_idx = 0
    for level in range(1, n_levels + 1):
        signals_here: List[str] = []
        for row in range(per_level[level - 1]):
            footprint, pins, _ = _pick_gate(rng)
            size = rng.choice(list(sizes))
            out_net = f"n{gate_idx}"
            conns = {pins_name: _pick_source(rng, level_signals, level)
                     for pins_name in pins}
            conns[_output_pin(footprint)] = out_net
            design.add_instance(
                f"g{gate_idx}",
                _cell_name(footprint, size, flavor),
                conns,
                location=_grid_location(level, row),
            )
            signals_here.append(out_net)
            gate_idx += 1
        level_signals.append(signals_here)

    # Capture flops on signals from the top levels.
    candidates = [s for lvl in level_signals[max(1, n_levels - 2):] for s in lvl]
    rng.shuffle(candidates)
    for i in range(n_outputs):
        src = candidates[i % len(candidates)]
        port = design.add_port(f"out{i}", PortDirection.OUTPUT)
        q_net = f"cq{i}"
        design.add_instance(
            f"ff_out{i}",
            _cell_name("dff", 1.0, flavor),
            {"D": src, "CK": "clk", "Q": q_net},
            location=_grid_location(n_levels + 1, i),
        )
        design.add_instance(
            f"obuf{i}",
            _cell_name("buf", 2.0, flavor),
            {"A": q_net, "Z": port},
            location=_grid_location(n_levels + 2, i),
        )
    return design


def _pick_gate(rng: random.Random):
    r = rng.random()
    acc = 0.0
    for footprint, pins, weight in _GATE_MENU:
        acc += weight
        if r <= acc:
            return footprint, pins, weight
    return _GATE_MENU[-1]


def _output_pin(footprint: str) -> str:
    return "Z" if footprint == "buf" else "ZN"


def _pick_source(rng: random.Random, level_signals: List[List[str]],
                 level: int) -> str:
    # 70% previous level, 30% any earlier level: long paths plus shortcuts.
    if level > 1 and rng.random() > 0.7:
        src_level = rng.randrange(0, level - 1)
    else:
        src_level = level - 1
    pool = level_signals[src_level]
    if not pool:  # fall back to the nearest non-empty level
        for lvl in range(level - 1, -1, -1):
            if level_signals[lvl]:
                pool = level_signals[lvl]
                break
    return rng.choice(pool)


def c5315_like(seed: int = 5315, scale: float = 1.0) -> Design:
    """A c5315-profile circuit: ~2300 gates, 178 inputs, 123 outputs."""
    return random_logic(
        name="c5315_like",
        n_inputs=max(4, int(178 * scale)),
        n_outputs=max(4, int(123 * scale)),
        n_gates=max(40, int(2307 * scale)),
        n_levels=max(4, int(26 * min(1.0, scale * 2))),
        seed=seed,
    )


def c7552_like(seed: int = 7552, scale: float = 1.0) -> Design:
    """A c7552-profile circuit: ~3500 gates, 207 inputs, 108 outputs."""
    return random_logic(
        name="c7552_like",
        n_inputs=max(4, int(207 * scale)),
        n_outputs=max(4, int(108 * scale)),
        n_gates=max(40, int(3512 * scale)),
        n_levels=max(4, int(22 * min(1.0, scale * 2))),
        seed=seed,
    )


# ---------------------------------------------------------------------- #
# structured generators


def _add_nand2(design: Design, name: str, a: str, b: str, out: str,
               location, flavor: str = "svt", size: float = 1.0) -> str:
    design.add_instance(
        name, _cell_name("nand2", size, flavor),
        {"A": a, "B": b, "ZN": out}, location=location,
    )
    return out


def add_full_adder(
    design: Design,
    prefix: str,
    a: str,
    b: str,
    cin: str,
    location: Tuple[float, float],
    flavor: str = "svt",
) -> Tuple[str, str]:
    """A nine-NAND full adder. Returns (sum_net, carry_net)."""
    col, row = location
    loc = lambda k: (col + (k % 3) * 1.5, row + (k // 3) * ROW_PITCH)
    x1 = _add_nand2(design, f"{prefix}_x1", a, b, f"{prefix}_x1z", loc(0), flavor)
    s1 = _add_nand2(design, f"{prefix}_s1", a, x1, f"{prefix}_s1z", loc(1), flavor)
    s2 = _add_nand2(design, f"{prefix}_s2", b, x1, f"{prefix}_s2z", loc(2), flavor)
    p = _add_nand2(design, f"{prefix}_p", s1, s2, f"{prefix}_pz", loc(3), flavor)
    x2 = _add_nand2(design, f"{prefix}_x2", p, cin, f"{prefix}_x2z", loc(4), flavor)
    s3 = _add_nand2(design, f"{prefix}_s3", p, x2, f"{prefix}_s3z", loc(5), flavor)
    s4 = _add_nand2(design, f"{prefix}_s4", cin, x2, f"{prefix}_s4z", loc(6), flavor)
    sum_net = _add_nand2(
        design, f"{prefix}_sum", s3, s4, f"{prefix}_sumz", loc(7), flavor
    )
    cout = _add_nand2(
        design, f"{prefix}_cout", x1, x2, f"{prefix}_coutz", loc(8), flavor
    )
    return sum_net, cout


def ripple_adder_design(
    name: str = "adder",
    bits: int = 12,
    lanes: int = 1,
    flavor: str = "svt",
) -> Design:
    """Registered ripple-carry adder lanes (deep carry-chain paths)."""
    design = Design(name)
    design.add_port("clk", PortDirection.INPUT)
    for lane in range(lanes):
        base_row = lane * (bits + 2) * 3
        a_bits, b_bits = [], []
        for i in range(bits):
            for sig, store in (("a", a_bits), ("b", b_bits)):
                port = design.add_port(f"{sig}{lane}_{i}", PortDirection.INPUT)
                q = f"{sig}q{lane}_{i}"
                design.add_instance(
                    f"ff_{sig}{lane}_{i}",
                    _cell_name("dff", 1.0, flavor),
                    {"D": port, "CK": "clk", "Q": q},
                    location=_grid_location(0, base_row + i * 3),
                )
                store.append(q)
        # Constant carry-in: an input port register (kept simple).
        cin_port = design.add_port(f"cin{lane}", PortDirection.INPUT)
        carry = f"cinq{lane}"
        design.add_instance(
            f"ff_cin{lane}",
            _cell_name("dff", 1.0, flavor),
            {"D": cin_port, "CK": "clk", "Q": carry},
            location=_grid_location(0, base_row + bits * 3),
        )
        for i in range(bits):
            sum_net, carry = add_full_adder(
                design,
                f"fa{lane}_{i}",
                a_bits[i],
                b_bits[i],
                carry,
                ((i + 1) * COL_PITCH, float(base_row + i * 3) * ROW_PITCH),
                flavor=flavor,
            )
            out_port = design.add_port(f"s{lane}_{i}", PortDirection.OUTPUT)
            design.add_instance(
                f"ff_s{lane}_{i}",
                _cell_name("dff", 1.0, flavor),
                {"D": sum_net, "CK": "clk", "Q": out_port},
                location=_grid_location(bits + 2, base_row + i * 3),
            )
    return design


def aes_like(
    name: str = "aes_like",
    n_sboxes: int = 16,
    sbox_gates: int = 60,
    seed: int = 2001,
    flavor: str = "svt",
) -> Design:
    """AES-round-profile circuit: parallel S-box clouds plus mixing.

    Each byte slice is a deep random cloud (the S-box), followed by a
    NAND-tree mixing layer across neighbouring slices (MixColumns-ish),
    registered on both sides.
    """
    rng = random.Random(seed)
    design = Design(name)
    design.add_port("clk", PortDirection.INPUT)

    slice_outputs: List[str] = []
    for s in range(n_sboxes):
        base_row = s * 10
        # Input register byte (8 bits).
        byte_nets = []
        for b in range(8):
            port = design.add_port(f"in_{s}_{b}", PortDirection.INPUT)
            q = f"sq{s}_{b}"
            design.add_instance(
                f"ff_in{s}_{b}",
                _cell_name("dff", 1.0, flavor),
                {"D": port, "CK": "clk", "Q": q},
                location=_grid_location(0, base_row + b),
            )
            byte_nets.append(q)
        # S-box: a deep random cloud over the byte.
        signals = list(byte_nets)
        for g in range(sbox_gates):
            footprint, pins, _ = _pick_gate(rng)
            out_net = f"sb{s}_n{g}"
            conns = {p: rng.choice(signals[-10:]) for p in pins}
            conns[_output_pin(footprint)] = out_net
            design.add_instance(
                f"sb{s}_g{g}",
                _cell_name(footprint, 1.0, flavor),
                conns,
                location=_grid_location(1 + g // 8, base_row + g % 8),
            )
            signals.append(out_net)
        slice_outputs.append(signals[-1])

    # Mixing layer: NAND trees across slices, then capture registers.
    mix_col = 2 + sbox_gates // 8
    for s in range(n_sboxes):
        a = slice_outputs[s]
        b = slice_outputs[(s + 1) % n_sboxes]
        c = slice_outputs[(s + 5) % n_sboxes]
        m1 = _add_nand2(design, f"mix{s}_1", a, b, f"mix{s}_1z",
                        _grid_location(mix_col, s * 2), flavor)
        m2 = _add_nand2(design, f"mix{s}_2", m1, c, f"mix{s}_2z",
                        _grid_location(mix_col + 1, s * 2), flavor)
        port = design.add_port(f"out_{s}", PortDirection.OUTPUT)
        design.add_instance(
            f"ff_out{s}",
            _cell_name("dff", 1.0, flavor),
            {"D": m2, "CK": "clk", "Q": port},
            location=_grid_location(mix_col + 2, s * 2),
        )
    return design


def mpeg2_like(
    name: str = "mpeg2_like",
    lanes: int = 4,
    bits: int = 10,
    control_gates: int = 300,
    seed: int = 1994,
    flavor: str = "svt",
) -> Design:
    """MPEG2-datapath-profile circuit: adder lanes plus a control cloud.

    The carry chains give very deep, wire-light critical paths; the
    control cloud gives shallow, high-fanout paths — the bimodal profile
    typical of video datapaths.
    """
    design = ripple_adder_design(name, bits=bits, lanes=lanes, flavor=flavor)
    rng = random.Random(seed)
    # Control cloud appended beside the datapath.
    ctl = random_logic(
        name="ctl",
        n_inputs=16,
        n_outputs=8,
        n_gates=control_gates,
        n_levels=8,
        seed=seed + 1,
        flavor=flavor,
    )
    _merge(design, ctl, prefix="ctl", col_offset=bits + 5,
           row_offset=lanes * (bits + 2) * 3 + 4)
    return design


def tiny_design(flavor: str = "svt") -> Design:
    """A deterministic five-gate design for unit tests.

    clk, in0, in1 -> launch flops -> NAND2 -> INV -> capture flop -> out.
    """
    design = Design("tiny")
    design.add_port("clk", PortDirection.INPUT)
    design.add_port("in0", PortDirection.INPUT)
    design.add_port("in1", PortDirection.INPUT)
    design.add_port("out", PortDirection.OUTPUT)
    design.add_instance(
        "ff0", _cell_name("dff", 1.0, flavor),
        {"D": "in0", "CK": "clk", "Q": "q0"}, location=(0.0, 0.0),
    )
    design.add_instance(
        "ff1", _cell_name("dff", 1.0, flavor),
        {"D": "in1", "CK": "clk", "Q": "q1"}, location=(0.0, 2.8),
    )
    design.add_instance(
        "u1", _cell_name("nand2", 1.0, flavor),
        {"A": "q0", "B": "q1", "ZN": "n1"}, location=(6.0, 1.4),
    )
    design.add_instance(
        "u2", _cell_name("inv", 1.0, flavor),
        {"A": "n1", "ZN": "n2"}, location=(12.0, 1.4),
    )
    design.add_instance(
        "ff2", _cell_name("dff", 1.0, flavor),
        {"D": "n2", "CK": "clk", "Q": "out"}, location=(18.0, 1.4),
    )
    return design


def hierarchical_soc(
    name: str = "soc",
    n_blocks: int = 3,
    block_gates: int = 96,
    seed: int = 1,
    with_feedthrough: bool = True,
    flavor: str = "svt",
):
    """A hierarchical SoC: AES/MPEG2/random-logic-like blocks stitched
    under a top with inter-block nets.

    Every block is anchored (see
    :func:`repro.netlist.hierarchy.with_boundary_anchors`) so its ETM is
    fully tabulated; blocks are chained in a ring with ``rng``-chosen
    port pairs, and one channel optionally routes through a pure
    feedthrough block. Returns a
    :class:`repro.netlist.hierarchy.HierarchicalDesign`.
    """
    from repro.netlist.hierarchy import (
        HierarchicalDesign,
        feedthrough_block,
        with_boundary_anchors,
    )

    if n_blocks < 2:
        raise NetlistError("a hierarchical SoC needs at least 2 blocks")
    rng = random.Random(seed)
    hier = HierarchicalDesign(name)
    names: List[str] = []
    for i in range(n_blocks):
        kind = i % 3
        if kind == 0:
            block = random_logic(
                name=f"rl{i}", n_inputs=4, n_outputs=4,
                n_gates=max(20, block_gates), n_levels=5,
                seed=seed * 31 + i, flavor=flavor,
            )
        elif kind == 1:
            block = aes_like(
                name=f"aes{i}", n_sboxes=2,
                sbox_gates=max(12, block_gates // 4),
                seed=seed * 17 + i, flavor=flavor,
            )
        else:
            block = ripple_adder_design(
                name=f"add{i}", bits=4, lanes=1, flavor=flavor,
            )
        with_boundary_anchors(block, flavor=flavor)
        bname = f"b{i}"
        hier.add_block(
            bname, block,
            origin=(40.0 + i * 160.0, 20.0 + (i % 2) * 90.0),
        )
        names.append(bname)
    if with_feedthrough:
        ft = feedthrough_block(name=f"ft{seed}", channels=2, flavor=flavor)
        hier.add_block("ft", ft, origin=(80.0 + n_blocks * 80.0, 140.0))

    for i in range(n_blocks):
        src, dst = names[i], names[(i + 1) % n_blocks]
        for _ in range(2):
            outs = hier.free_outputs(src)
            ins = hier.free_inputs(dst)
            if not outs or not ins:
                break
            hier.connect(src, rng.choice(outs), dst, rng.choice(ins))
    if with_feedthrough:
        # Route one channel of the first link through the feedthrough.
        outs = hier.free_outputs(names[0])
        ins = hier.free_inputs(names[1])
        if outs and ins:
            hier.connect(names[0], rng.choice(outs), "ft", "ft_in0")
            hier.connect("ft", "ft_out0", names[1], rng.choice(ins))
    return hier


def _merge(target: Design, source: Design, prefix: str,
           col_offset: float, row_offset: float) -> None:
    """Merge ``source`` into ``target`` with renamed objects; the source's
    clk joins the target's clk, other ports become target ports."""
    net_map: Dict[str, str] = {"clk": "clk"}
    for port, direction in source.ports.items():
        if port == "clk":
            continue
        new_port = f"{prefix}_{port}"
        net_map[port] = new_port
        target.add_port(new_port, direction)
    for net_name in source.nets:
        if net_name not in net_map:
            net_map[net_name] = f"{prefix}_{net_name}"
    for inst in source.instances.values():
        loc = inst.location
        if loc is not None:
            loc = (loc[0] + col_offset * COL_PITCH, loc[1] + row_offset * ROW_PITCH)
        target.add_instance(
            f"{prefix}_{inst.name}",
            inst.cell_name,
            {pin: net_map[net] for pin, net in inst.connections.items()},
            location=loc,
        )
