"""Minimum implant area (MinIA) checking and fixing.

Implant (Vt-defining) layer shapes must meet a minimum width; a narrow
island of one Vt flavor sandwiched between cells of another flavor (the
paper's Fig 6(a)) violates the rule. This couples Vt-swap optimization to
detailed placement — the Section 2.4 "interference" that weakens the
classic Fig 1 fix ordering.

The fixer follows [Kahng-Lee GLSVLSI'14]'s playbook, cheapest first:

1. *Absorb*: swap the island's cells to a neighbouring flavor — allowed
   only when every swapped cell keeps ``slack_guard`` of timing slack
   (swapping up costs delay) and is not dont_touch;
2. *Extend*: swap an adjacent cell *into* the island's flavor until the
   island meets the width rule (costs leakage when swapping down);
3. *Regroup*: move the island's cells next to the nearest same-flavor
   run in the row (placement perturbation, tracked as displacement).

Each action is validated against the rule before being committed; the
report records fix rate, leakage delta and total displacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.liberty.library import Library
from repro.netlist.design import Design
from repro.netlist.transforms import swap_vt
from repro.place.rows import PlacedCell, Placement

DEFAULT_MIN_IMPLANT_WIDTH = 1.0  # um


@dataclass(frozen=True)
class Island:
    """A same-flavor run that violates the minimum implant width."""

    row: int
    start: int  # index of the first cell of the run within the row
    cells: Tuple[str, ...]
    vt_flavor: str
    width: float


@dataclass
class MiniaFixReport:
    """Outcome of a fixing pass."""

    violations_before: int
    violations_after: int
    swaps: int = 0
    moves: int = 0
    displacement: float = 0.0  # um
    leakage_delta: float = 0.0  # mW

    @property
    def fix_rate(self) -> float:
        if self.violations_before == 0:
            return 1.0
        return 1.0 - self.violations_after / self.violations_before


def find_minia_violations(
    placement: Placement,
    min_width: float = DEFAULT_MIN_IMPLANT_WIDTH,
) -> List[Island]:
    """All same-flavor runs narrower than the rule.

    A run at a row boundary (first/last in its row) is exempt when it can
    merge with the adjacent region's implant — we conservatively flag
    only *interior* runs, matching the Fig 6(a) picture of an island
    sandwiched between two different-flavor neighbours.
    """
    violations: List[Island] = []
    for row in placement.rows.values():
        runs = row.runs()
        position = 0
        for i, run in enumerate(runs):
            width = sum(c.width for c in run)
            interior = 0 < i < len(runs) - 1
            if interior and width < min_width:
                violations.append(
                    Island(
                        row=row.index,
                        start=position,
                        cells=tuple(c.name for c in run),
                        vt_flavor=run[0].vt_flavor,
                        width=width,
                    )
                )
            position += len(run)
    return violations


def fix_minia_violations(
    design: Design,
    library: Library,
    placement: Placement,
    min_width: float = DEFAULT_MIN_IMPLANT_WIDTH,
    slack_of: Optional[Callable[[str], float]] = None,
    slack_guard: float = 0.0,
    max_passes: int = 3,
) -> MiniaFixReport:
    """Remove MinIA violations with guarded swaps and regrouping.

    ``slack_of(instance_name)`` supplies the worst slack through an
    instance (ps); swaps that would push a cell with less than
    ``slack_guard`` are refused. Without a slack oracle all swaps are
    allowed (power-only mode).
    """
    before = find_minia_violations(placement, min_width)
    report = MiniaFixReport(
        violations_before=len(before), violations_after=len(before)
    )
    slack_of = slack_of or (lambda name: float("inf"))

    for _ in range(max_passes):
        violations = find_minia_violations(placement, min_width)
        if not violations:
            break
        progress = False
        for island in violations:
            if _try_absorb(design, library, placement, island, slack_of,
                           slack_guard, report):
                progress = True
                continue
            if _try_extend(design, library, placement, island, min_width,
                           slack_of, slack_guard, report):
                progress = True
                continue
            if _try_regroup(placement, island, report):
                progress = True
        if not progress:
            break

    report.violations_after = len(find_minia_violations(placement, min_width))
    return report


# ---------------------------------------------------------------------- #
# fix actions


def _flavor_order_distance(a: str, b: str) -> int:
    order = {"ulvt": 0, "lvt": 1, "svt": 2, "hvt": 3, "uhvt": 4}
    return abs(order.get(a, 2) - order.get(b, 2))


def _neighbor_flavors(placement: Placement, island: Island) -> List[str]:
    row = placement.rows[island.row]
    runs = row.runs()
    for i, run in enumerate(runs):
        if run and run[0].name == island.cells[0]:
            flavors = []
            if i > 0:
                flavors.append(runs[i - 1][0].vt_flavor)
            if i < len(runs) - 1:
                flavors.append(runs[i + 1][0].vt_flavor)
            return flavors
    return []


def _apply_swap(design, library, placement, cell_name: str,
                flavor: str, report: MiniaFixReport) -> bool:
    inst = design.instance(cell_name)
    old_cell = library.cell(inst.cell_name)
    edit = swap_vt(design, library, cell_name, flavor)
    if edit is None:
        return False
    new_cell = library.cell(inst.cell_name)
    report.swaps += 1
    report.leakage_delta += new_cell.leakage - old_cell.leakage
    placement.cell(cell_name).vt_flavor = flavor
    return True


def _try_absorb(design, library, placement, island, slack_of, guard,
                report) -> bool:
    """Swap the whole island to a neighbouring flavor."""
    candidates = sorted(
        set(_neighbor_flavors(placement, island)),
        key=lambda f: _flavor_order_distance(island.vt_flavor, f),
    )
    for flavor in candidates:
        slower = _flavor_is_slower(flavor, island.vt_flavor)
        if slower and any(slack_of(c) < guard for c in island.cells):
            continue
        ok = all(
            library.swap_variant(
                library.cell(design.instance(c).cell_name), vt_flavor=flavor
            ) is not None
            for c in island.cells
        )
        if not ok:
            continue
        for cell_name in island.cells:
            _apply_swap(design, library, placement, cell_name, flavor, report)
        return True
    return False


def _try_extend(design, library, placement, island, min_width, slack_of,
                guard, report) -> bool:
    """Swap adjacent cells into the island's flavor to widen it."""
    row = placement.rows[island.row]
    row.sort()
    names = [c.name for c in row.cells]
    try:
        left = names.index(island.cells[0]) - 1
        right = names.index(island.cells[-1]) + 1
    except ValueError:
        return False
    width = island.width
    slower = _flavor_is_slower(island.vt_flavor, "lvt")
    for idx in (right, left):
        if not 0 <= idx < len(row.cells):
            continue
        neighbor = row.cells[idx]
        if _flavor_is_slower(island.vt_flavor, neighbor.vt_flavor) and \
                slack_of(neighbor.name) < guard:
            continue
        if _apply_swap(design, library, placement, neighbor.name,
                       island.vt_flavor, report):
            width += neighbor.width
            if width >= min_width:
                return True
    return width >= min_width


def _try_regroup(placement, island, report) -> bool:
    """Move island cells next to the nearest same-flavor run in the row."""
    row = placement.rows[island.row]
    runs = row.runs()
    target: Optional[List[PlacedCell]] = None
    island_cells = [c for c in row.cells if c.name in island.cells]
    if not island_cells:
        return False
    ix = island_cells[0].x
    best_dist = None
    for run in runs:
        if run[0].vt_flavor != island.vt_flavor or \
                run[0].name == island.cells[0]:
            continue
        dist = abs(run[0].x - ix)
        if best_dist is None or dist < best_dist:
            best_dist = dist
            target = run
    if target is None:
        return False
    cursor = target[-1].right
    for cell in island_cells:
        report.displacement += abs(cell.x - cursor)
        cell.x = cursor
        cursor = cell.right
        report.moves += 1
    row.legalize()
    return True


def _flavor_is_slower(new: str, old: str) -> bool:
    order = {"ulvt": 0, "lvt": 1, "svt": 2, "hvt": 3, "uhvt": 4}
    return order.get(new, 2) > order.get(old, 2)
