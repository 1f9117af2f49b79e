"""3DIC timing-closure analysis (the paper's last "future").

Section 4: "New 3DIC-specific timing closure challenges will include (i)
(partitioning, clocking interface design methodology to avoid)
variation-aware analysis across multiple die; (ii) closure of power
integrity and thermal loops with timing analysis; and (iii)
variability-mitigating optimizations."

This module provides (i) concretely: partition a flat design onto two
stacked dies, annotate the cross-die nets with TSV parasitics, apply
independent per-die process excursions as per-instance derates, and
compare the cross-die corner matrix (die A fast / die B slow, etc.)
against single-die analysis — the "variation-aware analysis across
multiple die" the paper calls out. Partition-aware mitigation
(:func:`repartition_to_avoid_cross_die_criticality`) demonstrates (iii).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import TimingError
from repro.liberty.library import Library
from repro.netlist.design import Design
from repro.sta.analysis import STA
from repro.sta.constraints import Constraints
from repro.sta.propagation import Derates


@dataclass(frozen=True)
class TsvSpec:
    """Through-silicon via electrical model."""

    resistance: float = 0.05  # kohm
    capacitance: float = 25.0  # fF

    @property
    def extra_delay_hint(self) -> float:
        """Order-of-magnitude RC of the TSV itself, ps."""
        return self.resistance * self.capacitance


def partition_by_y(design: Design, n_dies: int = 2) -> Dict[str, int]:
    """Assign instances to dies by median y (a folding partition)."""
    if n_dies != 2:
        raise TimingError("only two-die stacks are modeled")
    ys = sorted(
        inst.location[1]
        for inst in design.instances.values()
        if inst.location is not None
    )
    if not ys:
        raise TimingError("cannot partition an unplaced design")
    median = ys[len(ys) // 2]
    return {
        name: (0 if (inst.location or (0.0, 0.0))[1] < median else 1)
        for name, inst in design.instances.items()
    }


def cross_die_nets(design: Design, assignment: Dict[str, int]) -> List[str]:
    """Nets whose pins span both dies (each needs a TSV)."""
    out = []
    for net_name, net in design.nets.items():
        dies = set()
        for ref in net.pins():
            if ref.is_port:
                continue
            dies.add(assignment.get(ref.instance, 0))
        if len(dies) > 1:
            out.append(net_name)
    return out


def apply_tsv_parasitics(design: Design, assignment: Dict[str, int],
                         tsv: TsvSpec = TsvSpec()) -> int:
    """Add TSV capacitance to every cross-die net. Returns the count."""
    crossings = cross_die_nets(design, assignment)
    for net_name in crossings:
        design.get_net(net_name).extra_cap += tsv.capacitance
    return len(crossings)


def die_derates(assignment: Dict[str, int],
                die_speed: Dict[int, float]) -> Derates:
    """Per-instance derates from per-die speed factors.

    ``die_speed[die] = 1.05`` means that die's silicon is 5% slow; the
    early factor mirrors it so a fast die is also fast in hold analysis.
    """
    late = {
        inst: die_speed.get(die, 1.0) for inst, die in assignment.items()
    }
    early = dict(late)
    return Derates(instance_late=late, instance_early=early)


@dataclass
class CrossDieCornerResult:
    """One cell of the cross-die corner matrix.

    ``internal_wns_hold`` restricts hold to flop-launched endpoints —
    the paths whose launch and capture flops can sit on different dies,
    where the 3DIC-specific mismatch shows up. (Port-fed hold endpoints
    are insensitive to die speed and would mask it.)
    """

    die0_speed: float
    die1_speed: float
    wns_setup: float
    wns_hold: float
    internal_wns_hold: float = float("inf")

    @property
    def label(self) -> str:
        def tag(x: float) -> str:
            if x > 1.01:
                return "slow"
            if x < 0.99:
                return "fast"
            return "typ"

        return f"d0:{tag(self.die0_speed)}/d1:{tag(self.die1_speed)}"


def cross_die_corner_matrix(
    design: Design,
    library: Library,
    constraints: Constraints,
    assignment: Dict[str, int],
    speeds: Tuple[float, ...] = (0.95, 1.0, 1.05),
) -> List[CrossDieCornerResult]:
    """STA across every (die0 speed, die1 speed) combination.

    The diagonal is ordinary single-die corner analysis; the off-diagonal
    cells are what 3DIC adds — a fast launch die against a slow capture
    die (and vice versa) that single-die signoff never sees.
    """
    results = []
    for s0, s1 in itertools.product(speeds, repeat=2):
        derates = die_derates(assignment, {0: s0, 1: s1})
        sta = STA(design, library, constraints, derates=derates)
        report = sta.run()
        internal_hold = float("inf")
        for endpoint in report.endpoints("hold"):
            path = sta.worst_path(endpoint)
            if path.stage_count >= 1:  # launched through a flop's CK->Q
                internal_hold = min(internal_hold, endpoint.slack)
        results.append(
            CrossDieCornerResult(
                die0_speed=s0,
                die1_speed=s1,
                wns_setup=report.wns("setup"),
                wns_hold=report.wns("hold"),
                internal_wns_hold=internal_hold,
            )
        )
    return results


def worst_off_diagonal_penalty(
    results: List[CrossDieCornerResult], mode: str = "hold"
) -> float:
    """How much worse the off-diagonal (cross-die) corners are than the
    matched-die corners — the quantitative case for (i)'s 'clocking
    interface design methodology to avoid' cross-die analysis."""
    diagonal = [r for r in results if r.die0_speed == r.die1_speed]
    off = [r for r in results if r.die0_speed != r.die1_speed]
    if not off:
        return 0.0
    attr = "internal_wns_hold" if mode == "hold" else "wns_setup"
    return min(getattr(r, attr) for r in diagonal) - \
        min(getattr(r, attr) for r in off)


def repartition_to_avoid_cross_die_criticality(
    design: Design,
    library: Library,
    constraints: Constraints,
    assignment: Dict[str, int],
    max_moves: int = 20,
) -> Tuple[Dict[str, int], int]:
    """Variability-mitigating optimization: pull the cells of critical
    cross-die paths onto one die so the worst paths stop straddling the
    TSV boundary. Returns (new assignment, moves made)."""
    sta = STA(design, library, constraints)
    report = sta.run()
    new_assignment = dict(assignment)
    moves = 0
    for endpoint in report.endpoints("setup"):
        if endpoint.kind != "setup" or moves >= max_moves:
            continue
        path = sta.worst_path(endpoint)
        dies = {
            new_assignment.get(p.ref.instance)
            for p in path.points
            if not p.ref.is_port
        }
        if len(dies) <= 1:
            continue
        # Move everything on the path to the capture flop's die.
        target = new_assignment.get(endpoint.check.instance, 0)
        for point in path.points:
            if point.ref.is_port:
                continue
            inst = point.ref.instance
            if new_assignment.get(inst) != target:
                new_assignment[inst] = target
                moves += 1
                if moves >= max_moves:
                    break
    return new_assignment, moves
