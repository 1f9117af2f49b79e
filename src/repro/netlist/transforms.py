"""Netlist edits used by timing-closure optimizations.

Each transform performs one edit (Vt swap, resize, buffer insertion, NDR
promotion) and rebinds the affected nets. Transforms return a record of
what changed so the closure loop can report and, if needed, revert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import NetlistError
from repro.liberty.library import Library
from repro.netlist.design import Design, PinRef


@dataclass(frozen=True)
class Edit:
    """A record of one netlist edit."""

    kind: str  # "swap", "resize", "buffer", "ndr"
    target: str  # instance or net name
    before: str
    after: str

    def __str__(self) -> str:
        return f"{self.kind}({self.target}: {self.before} -> {self.after})"


def check_swap(library: Library, instance_name: str, old_cell_name: str,
               new_cell_name: str) -> None:
    """The swap-legality rule: ``new_cell_name`` may replace
    ``old_cell_name`` on ``instance_name`` only with the same footprint
    and pin set in ``library``. Raises :class:`NetlistError` (or
    :class:`LibraryError` for an unknown cell) otherwise."""
    old_cell = library.cell(old_cell_name)
    new_cell = library.cell(new_cell_name)
    if new_cell.footprint != old_cell.footprint:
        raise NetlistError(
            f"cannot swap {instance_name}: {new_cell_name} has footprint "
            f"{new_cell.footprint!r}, expected {old_cell.footprint!r}"
        )
    if set(new_cell.pins) != set(old_cell.pins):
        raise NetlistError(
            f"cannot swap {instance_name}: pin sets differ between "
            f"{old_cell.name} and {new_cell.name}"
        )


def swap_cell(design: Design, library: Library, instance_name: str,
              new_cell_name: str) -> Edit:
    """Replace an instance's cell with a footprint-compatible variant."""
    inst = design.instance(instance_name)
    if inst.dont_touch:
        raise NetlistError(f"instance {instance_name} is marked dont_touch")
    check_swap(library, instance_name, inst.cell_name, new_cell_name)
    before = inst.cell_name
    inst.cell_name = new_cell_name
    return Edit("swap", instance_name, before, new_cell_name)


def swap_vt(design: Design, library: Library, instance_name: str,
            vt_flavor: str) -> Optional[Edit]:
    """Vt-swap an instance; returns None when no such variant exists."""
    inst = design.instance(instance_name)
    cell = library.cell(inst.cell_name)
    if cell.vt_flavor == vt_flavor:
        return None
    variant = library.swap_variant(cell, vt_flavor=vt_flavor)
    if variant is None:
        return None
    return swap_cell(design, library, instance_name, variant.name)


def resize(design: Design, library: Library, instance_name: str,
           size: float) -> Optional[Edit]:
    """Resize an instance; returns None when no such variant exists."""
    inst = design.instance(instance_name)
    cell = library.cell(inst.cell_name)
    if cell.size == size:
        return None
    variant = library.swap_variant(cell, size=size)
    if variant is None:
        return None
    return swap_cell(design, library, instance_name, variant.name)


def upsize(design: Design, library: Library, instance_name: str) -> Optional[Edit]:
    """Move to the next larger size in the menu, if any."""
    inst = design.instance(instance_name)
    cell = library.cell(inst.cell_name)
    menu = library.size_menu(cell)
    larger = [c for c in menu if c.size > cell.size]
    if not larger:
        return None
    return swap_cell(design, library, instance_name, larger[0].name)


def downsize(design: Design, library: Library, instance_name: str) -> Optional[Edit]:
    """Move to the next smaller size in the menu, if any."""
    inst = design.instance(instance_name)
    cell = library.cell(inst.cell_name)
    menu = library.size_menu(cell)
    smaller = [c for c in menu if c.size < cell.size]
    if not smaller:
        return None
    return swap_cell(design, library, instance_name, smaller[-1].name)


def insert_buffer(
    design: Design,
    library: Library,
    net_name: str,
    buffer_cell_name: str,
    load_subset: Optional[Sequence[PinRef]] = None,
) -> Edit:
    """Insert a buffer on a net, optionally splitting off a load subset.

    The buffer's input joins the original net; the chosen loads (default:
    all of them) move to a new net driven by the buffer. The buffer is
    placed at the centroid of the moved loads.
    """
    net = design.get_net(net_name)
    if net.driver is None:
        raise NetlistError(f"cannot buffer undriven net {net_name!r}")
    buffer_cell = library.cell(buffer_cell_name)
    if buffer_cell.footprint != "buf":
        raise NetlistError(f"{buffer_cell_name} is not a buffer")
    moved = list(load_subset) if load_subset is not None else list(net.loads)
    if not moved:
        raise NetlistError(f"no loads to buffer on net {net_name!r}")
    for ref in moved:
        if ref not in net.loads:
            raise NetlistError(f"{ref} is not a load of net {net_name!r}")

    in_pin = buffer_cell.input_pins()[0].name
    out_pin = buffer_cell.output_pins()[0].name
    buf_name = design.unique_name("buf")
    new_net_name = design.unique_name(f"{net_name}_buf")

    location = _centroid(design, moved)
    design.add_instance(
        buf_name,
        buffer_cell_name,
        {in_pin: net_name, out_pin: new_net_name},
        location=location,
    )
    new_net = design.get_net(new_net_name)
    net.loads = [l for l in net.loads if l not in moved] + [PinRef(buf_name, in_pin)]
    new_net.driver = PinRef(buf_name, out_pin)
    new_net.loads = moved
    for ref in moved:
        if not ref.is_port:
            design.instance(ref.instance).connections[ref.pin] = new_net_name
    return Edit("buffer", net_name, f"fanout={len(moved)}", buf_name)


def set_ndr(design: Design, net_name: str) -> Edit:
    """Promote a net to non-default routing (wider/spaced wires: lower R,
    slightly higher C — parasitic synthesis honours the flag)."""
    net = design.get_net(net_name)
    before = str(net.ndr)
    net.ndr = True
    return Edit("ndr", net_name, before, "True")


def _centroid(design: Design, refs: Sequence[PinRef]):
    xs, ys = [], []
    for ref in refs:
        if ref.is_port:
            continue
        loc = design.instance(ref.instance).location
        if loc is not None:
            xs.append(loc[0])
            ys.append(loc[1])
    if not xs:
        return None
    return (sum(xs) / len(xs), sum(ys) / len(ys))
