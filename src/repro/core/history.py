"""The paper's Fig 2 old-vs-new matrix and Fig 3 care-abouts timeline,
as queryable data.

These two figures are knowledge tables rather than measurements; encoding
them makes the survey itself testable ("what entered at 20nm?") and
renders the same tables the paper prints.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ReproError

#: Fig 2's OLD -> NEW aspects of timing closure.
OLD_VS_NEW: List[Tuple[str, str]] = [
    ("1 mode", "MCMM (hundreds of scenarios)"),
    ("setup-hold only", "setup-hold + noise closure + aging/AVS"),
    ("SI as afterthought", "SI delta delay in the loop"),
    ("C-worst only", "exploding BEOL corners, cross-corners, corner reduction"),
    ("NLDM", "cell-POCV / LVF variation models"),
    ("static IR", "dynamic IR-aware analysis"),
    ("flat margins everywhere", "flat margin selection / margin recovery"),
    ("independent place & opt", "place-opt interference (MinIA and friends)"),
    ("single patterning", "multi-patterning-aware layout and extraction"),
]

#: Fig 3: node (nm) at which each timing-closure care-about became
#: mainstream. Ordered by node, newest last.
CARE_ABOUTS: Dict[str, int] = {
    "noise": 90,
    "mcmm": 90,
    "max_transition": 90,
    "electromigration": 90,
    "bti_aging": 65,
    "temperature_inversion": 65,
    "aocv": 45,
    "pba": 45,
    "fixed_margin_spec": 45,
    "fill_effects": 45,
    "layout_rules": 28,
    "phys_aware_timing_eco": 28,
    "dynamic_ir": 28,
    "mol_beol_resistance": 20,
    "multi_patterning": 20,
    "min_implant": 20,
    "beol_mol_variation": 16,
    "cell_pocv": 16,
    "signoff_with_avs": 16,
    "soc_complexity": 16,
    "lvf": 10,
    "mis": 10,
}

_NODE_ORDER = [90, 65, 45, 28, 20, 16, 10, 7]


def care_abouts_at(node_nm: int) -> List[str]:
    """Every care-about active at a node (introduced at or before it)."""
    if node_nm not in _NODE_ORDER:
        raise ReproError(
            f"unknown node {node_nm}nm; known: {_NODE_ORDER}"
        )
    return sorted(
        name for name, intro in CARE_ABOUTS.items() if intro >= node_nm
    )


def new_at(node_nm: int) -> List[str]:
    """Care-abouts that *entered* at exactly this node."""
    if node_nm not in _NODE_ORDER:
        raise ReproError(f"unknown node {node_nm}nm; known: {_NODE_ORDER}")
    return sorted(name for name, intro in CARE_ABOUTS.items()
                  if intro == node_nm)


def node_of(care_about: str) -> int:
    try:
        return CARE_ABOUTS[care_about]
    except KeyError:
        raise ReproError(f"unknown care-about {care_about!r}") from None


def render_old_vs_new() -> str:
    """The Fig 2 table as text."""
    width = max(len(old) for old, _ in OLD_VS_NEW)
    lines = [f"{'OLD':<{width}}   NEW"]
    for old, new in OLD_VS_NEW:
        lines.append(f"{old:<{width}}   {new}")
    return "\n".join(lines)


def render_timeline() -> str:
    """The Fig 3 map as text: one row per care-about, columns per node."""
    header = "care-about".ljust(26) + "".join(
        f"{n:>6}" for n in _NODE_ORDER
    )
    lines = [header]
    for name, intro in sorted(CARE_ABOUTS.items(), key=lambda kv: -kv[1]):
        row = name.ljust(26)
        for node in _NODE_ORDER:
            row += f"{'  x   ' if node <= intro else '      '}"
        lines.append(row.rstrip())
    return "\n".join(lines)
