"""Liberty-lite text format: writer and parser.

A compact, self-consistent subset of the Liberty syntax — nested groups,
``attr : value;`` attributes, and quoted table strings — sufficient to
round-trip everything :mod:`repro.liberty` models (NLDM tables, constraint
tables, LVF sigmas, leakage, footprints). Example::

    library (repro16_tt_800mv_25c) {
      nom_voltage : 0.8;
      cell (INV_X1_SVT) {
        footprint : inv;
        pin (A) { direction : input; capacitance : 2.8; }
        timing () {
          related_pin : A;
          pin : ZN;
          cell_fall { index_1 : "2, 5"; index_2 : "1, 2";
                      values : "10, 11 | 12, 13"; }
        }
      }
    }
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.errors import LibraryError
from repro.liberty.arcs import ArcTiming, TimingArc, TimingSense, TimingType
from repro.liberty.cell import Cell, Pin, PinDirection
from repro.liberty.library import Library
from repro.liberty.tables import LookupTable2D

# ---------------------------------------------------------------------- #
# writer

_TABLE_KEYS = {
    ("rise", "delay"): "cell_rise",
    ("fall", "delay"): "cell_fall",
    ("rise", "slew"): "rise_transition",
    ("fall", "slew"): "fall_transition",
    ("rise", "sigma_early"): "sigma_rise_early",
    ("fall", "sigma_early"): "sigma_fall_early",
    ("rise", "sigma_late"): "sigma_rise_late",
    ("fall", "sigma_late"): "sigma_fall_late",
}


def write_library(library: Library) -> str:
    """Serialize a library to Liberty-lite text."""
    out: List[str] = []
    out.append(f"library ({library.name}) {{")
    out.append(f"  nom_voltage : {library.vdd};")
    out.append(f"  nom_temperature : {library.temp_c};")
    out.append(f"  process : {library.process};")
    out.append(f"  default_max_transition : {library.default_max_transition};")
    for cell in library.cells.values():
        out.extend(_write_cell(cell))
    out.append("}")
    return "\n".join(out) + "\n"


def _write_cell(cell: Cell) -> List[str]:
    out = [f"  cell ({cell.name}) {{"]
    out.append(f"    footprint : {cell.footprint};")
    out.append(f"    size : {cell.size};")
    out.append(f"    vt_flavor : {cell.vt_flavor};")
    out.append(f"    area : {cell.area};")
    out.append(f"    cell_leakage_power : {cell.leakage!r};")
    if cell.function:
        out.append(f'    function : "{cell.function}";')
    if cell.is_sequential:
        out.append("    is_sequential : true;")
    for pin in cell.pins.values():
        out.append(f"    pin ({pin.name}) {{")
        out.append(f"      direction : {pin.direction.value};")
        if pin.capacitance:
            out.append(f"      capacitance : {pin.capacitance!r};")
        if pin.is_clock:
            out.append("      clock : true;")
        if pin.max_transition is not None:
            out.append(f"      max_transition : {pin.max_transition!r};")
        if pin.max_capacitance is not None:
            out.append(f"      max_capacitance : {pin.max_capacitance!r};")
        out.append("    }")
    for arc in cell.arcs:
        out.extend(_write_arc(arc))
    out.append("  }")
    return out


def _write_arc(arc: TimingArc) -> List[str]:
    out = ["    timing () {"]
    out.append(f"      related_pin : {arc.related_pin};")
    out.append(f"      pin : {arc.pin};")
    out.append(f"      timing_type : {arc.timing_type.value};")
    out.append(f"      timing_sense : {arc.sense.value};")
    for direction, timing in sorted(arc.timing.items()):
        out.extend(_write_table(_TABLE_KEYS[(direction, "delay")], timing.delay))
        out.extend(_write_table(_TABLE_KEYS[(direction, "slew")], timing.slew))
        if timing.sigma_early is not None:
            out.extend(
                _write_table(_TABLE_KEYS[(direction, "sigma_early")],
                             timing.sigma_early)
            )
        if timing.sigma_late is not None:
            out.extend(
                _write_table(_TABLE_KEYS[(direction, "sigma_late")],
                             timing.sigma_late)
            )
    for direction, table in sorted(arc.constraint.items()):
        out.extend(_write_table(f"{direction}_constraint", table))
    out.append("    }")
    return out


def _write_table(name: str, table: LookupTable2D) -> List[str]:
    idx1 = ", ".join(repr(float(x)) for x in table.index_1)
    idx2 = ", ".join(repr(float(x)) for x in table.index_2)
    rows = " | ".join(
        ", ".join(repr(float(v)) for v in row) for row in table.values
    )
    return [
        f"      {name} {{",
        f'        index_1 : "{idx1}";',
        f'        index_2 : "{idx2}";',
        f'        values : "{rows}";',
        "      }",
    ]


# ---------------------------------------------------------------------- #
# parser

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<string>"[^"]*")
      | (?P<punct>[{}();:])
      | (?P<word>[^\s{}();:"]+)
    )
    """,
    re.VERBOSE,
)


class _Group:
    """Parsed group: name, argument, attributes and child groups."""

    def __init__(self, name: str, arg: str):
        self.name = name
        self.arg = arg
        self.attrs: Dict[str, str] = {}
        self.children: List["_Group"] = []

    def child(self, name: str) -> List["_Group"]:
        return [c for c in self.children if c.name == name]

    def attr(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.attrs.get(name, default)


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            break
        pos = m.end()
        tok = m.group("string") or m.group("punct") or m.group("word")
        tokens.append(tok)
    return tokens


def _parse_group(tokens: List[str], pos: int) -> Tuple[_Group, int]:
    name = tokens[pos]
    pos += 1
    arg = ""
    if tokens[pos] == "(":
        close = tokens.index(")", pos)
        arg = " ".join(tokens[pos + 1 : close])
        pos = close + 1
    if tokens[pos] != "{":
        raise LibraryError(f"expected '{{' after group {name}, got {tokens[pos]!r}")
    pos += 1
    group = _Group(name, arg)
    while pos < len(tokens):
        tok = tokens[pos]
        if tok == "}":
            return group, pos + 1
        # attribute: word : value ;
        if pos + 1 < len(tokens) and tokens[pos + 1] == ":":
            value_tokens = []
            j = pos + 2
            while tokens[j] != ";":
                value_tokens.append(tokens[j])
                j += 1
            group.attrs[tok] = " ".join(value_tokens).strip('"')
            pos = j + 1
        else:
            child, pos = _parse_group(tokens, pos)
            group.children.append(child)
    raise LibraryError(f"unterminated group {name}")


def parse_library(text: str) -> Library:
    """Parse Liberty-lite text back into a :class:`Library`."""
    tokens = _tokenize(text)
    if not tokens:
        raise LibraryError("empty library text")
    root, _ = _parse_group(tokens, 0)
    if root.name != "library":
        raise LibraryError(f"expected a library group, got {root.name!r}")
    lib = Library(
        name=root.arg,
        vdd=float(root.attr("nom_voltage", "0.8")),
        temp_c=float(root.attr("nom_temperature", "25.0")),
        process=root.attr("process", "tt"),
        default_max_transition=float(root.attr("default_max_transition", "150.0")),
    )
    for cgrp in root.child("cell"):
        lib.add_cell(_parse_cell(cgrp))
    return lib


def _parse_cell(grp: _Group) -> Cell:
    cell = Cell(
        name=grp.arg,
        footprint=grp.attr("footprint", ""),
        size=float(grp.attr("size", "1.0")),
        vt_flavor=grp.attr("vt_flavor", "svt"),
        area=float(grp.attr("area", "0.0")),
        leakage=float(grp.attr("cell_leakage_power", "0.0")),
        function=grp.attr("function", ""),
        is_sequential=grp.attr("is_sequential", "false") == "true",
    )
    for pgrp in grp.child("pin"):
        mt = pgrp.attr("max_transition")
        mc = pgrp.attr("max_capacitance")
        cell.pins[pgrp.arg] = Pin(
            name=pgrp.arg,
            direction=PinDirection(pgrp.attr("direction", "input")),
            capacitance=float(pgrp.attr("capacitance", "0.0")),
            is_clock=pgrp.attr("clock", "false") == "true",
            max_transition=float(mt) if mt is not None else None,
            max_capacitance=float(mc) if mc is not None else None,
        )
    for tgrp in grp.child("timing"):
        cell.arcs.append(_parse_arc(tgrp))
    return cell


def _parse_arc(grp: _Group) -> TimingArc:
    timing_type = TimingType(grp.attr("timing_type", "combinational"))
    arc = TimingArc(
        related_pin=grp.attr("related_pin", ""),
        pin=grp.attr("pin", ""),
        timing_type=timing_type,
        sense=TimingSense(grp.attr("timing_sense", "negative_unate")),
    )
    tables = {c.name: _parse_table(c) for c in grp.children}
    inverse_keys = {v: k for k, v in _TABLE_KEYS.items()}
    per_direction: Dict[str, Dict[str, LookupTable2D]] = {}
    for name, table in tables.items():
        if name in inverse_keys:
            direction, role = inverse_keys[name]
            per_direction.setdefault(direction, {})[role] = table
        elif name.endswith("_constraint"):
            arc.constraint[name[: -len("_constraint")]] = table
        else:
            raise LibraryError(f"unknown table {name!r} in timing group")
    for direction, roles in per_direction.items():
        if "delay" not in roles or "slew" not in roles:
            raise LibraryError(
                f"timing group for {arc.related_pin}->{arc.pin} is missing "
                f"delay or slew tables for direction {direction!r}"
            )
        arc.timing[direction] = ArcTiming(
            delay=roles["delay"],
            slew=roles["slew"],
            sigma_early=roles.get("sigma_early"),
            sigma_late=roles.get("sigma_late"),
        )
    return arc


def _parse_table(grp: _Group) -> LookupTable2D:
    try:
        idx1 = [float(x) for x in grp.attrs["index_1"].split(",")]
        idx2 = [float(x) for x in grp.attrs["index_2"].split(",")]
        rows = [
            [float(x) for x in row.split(",")]
            for row in grp.attrs["values"].split("|")
        ]
    except (KeyError, ValueError) as exc:
        raise LibraryError(f"malformed table group {grp.name!r}: {exc}") from exc
    return LookupTable2D(idx1, idx2, rows)
