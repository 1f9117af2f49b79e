"""RC trees and moment-based wire-delay metrics.

Implements the classic ladder of interconnect delay models the paper's
Section 3.1 recounts ("lumped-C ... Elmore's bound ... O'Brien-Savarino"):
Elmore delay (first moment) and D2M (two-moment) on arbitrary RC trees,
plus the O'Brien-Savarino pi-model reduction used to present a realistic
load to the driver.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError


class RCTree:
    """An RC tree rooted at the driver node.

    Each non-root node has one parent, a resistance on the edge to its
    parent (kohm) and a grounded capacitance (fF). Delay metrics are in ps.
    """

    def __init__(self, root: str = "root"):
        self.root = root
        self._parent: Dict[str, Optional[str]] = {root: None}
        self._r_to_parent: Dict[str, float] = {root: 0.0}
        self._cap: Dict[str, float] = {root: 0.0}
        self._children: Dict[str, List[str]] = {root: []}

    def add_node(self, name: str, parent: str, resistance: float,
                 capacitance: float) -> str:
        """Add a node hanging from ``parent`` through ``resistance``."""
        if name in self._parent:
            raise ReproError(f"duplicate RC-tree node {name!r}")
        if parent not in self._parent:
            raise ReproError(f"unknown parent node {parent!r}")
        if resistance < 0 or capacitance < 0:
            raise ReproError("resistance and capacitance must be non-negative")
        self._parent[name] = parent
        self._r_to_parent[name] = resistance
        self._cap[name] = capacitance
        self._children[name] = []
        self._children[parent].append(name)
        return name

    def add_cap(self, node: str, capacitance: float) -> None:
        """Add extra grounded capacitance at an existing node (pin caps)."""
        if node not in self._cap:
            raise ReproError(f"unknown node {node!r}")
        self._cap[node] += capacitance

    @property
    def nodes(self) -> List[str]:
        return list(self._parent)

    def total_cap(self) -> float:
        """Total capacitance of the tree, fF."""
        return sum(self._cap.values())

    # ------------------------------------------------------------------ #
    # moments

    def downstream_caps(self) -> Dict[str, float]:
        """Capacitance at-or-below each node (one bottom-up pass)."""
        order = self._topological()
        down = dict(self._cap)
        for node in reversed(order):
            for child in self._children[node]:
                down[node] += down[child]
        return down

    def elmore(self, sink: str) -> float:
        """Elmore delay (first moment) from the root to ``sink``, ps."""
        if sink not in self._parent:
            raise ReproError(f"unknown sink {sink!r}")
        down = self.downstream_caps()
        delay = 0.0
        node = sink
        while self._parent[node] is not None:
            delay += self._r_to_parent[node] * down[node]
            node = self._parent[node]
        return delay

    def second_moment(self, sink: str) -> float:
        """Second moment m2 at ``sink`` (for D2M), ps^2.

        m1 at every node is computed first; m2(sink) = sum over the
        root-to-sink edges of R_edge * (downstream sum of C_k * m1_k).
        """
        if sink not in self._parent:
            raise ReproError(f"unknown sink {sink!r}")
        order = self._topological()
        down = self.downstream_caps()
        # m1 at every node, top-down.
        m1: Dict[str, float] = {self.root: 0.0}
        for node in order[1:]:
            parent = self._parent[node]
            m1[node] = m1[parent] + self._r_to_parent[node] * down[node]
        # Downstream sum of C * m1, bottom-up.
        cm1 = {n: self._cap[n] * m1[n] for n in order}
        for node in reversed(order):
            for child in self._children[node]:
                cm1[node] += cm1[child]
        m2 = 0.0
        node = sink
        while self._parent[node] is not None:
            m2 += self._r_to_parent[node] * cm1[node]
            node = self._parent[node]
        return m2

    def d2m(self, sink: str) -> float:
        """The D2M two-moment delay metric, ps: ln2 * m1^2 / sqrt(m2).

        Tighter than Elmore for far sinks on resistive nets; falls back to
        Elmore when m2 is degenerate.
        """
        m1 = self.elmore(sink)
        m2 = self.second_moment(sink)
        if m2 <= 0.0:
            return m1
        return math.log(2.0) * m1 * m1 / math.sqrt(m2)

    def pi_model(self) -> Tuple[float, float, float]:
        """O'Brien-Savarino reduction to (C_near, R, C_far) seen from root.

        Matches the first three moments of the admittance:
        C_near + C_far = total cap, with the resistive shielding split
        determined by y2, y3.
        """
        order = self._topological()
        # Admittance moments looking down from the root: y1 = total C,
        # y2 = -sum R_k * (downstream C)^2 like terms, via bottom-up merge.
        y1: Dict[str, float] = {}
        y2: Dict[str, float] = {}
        y3: Dict[str, float] = {}
        for node in reversed(order):
            c = self._cap[node]
            a1, a2, a3 = c, 0.0, 0.0
            for child in self._children[node]:
                r = self._r_to_parent[child]
                b1, b2, b3 = y1[child], y2[child], y3[child]
                # Propagate child admittance through its edge resistance.
                a1 += b1
                a2 += b2 - r * b1 * b1
                a3 += b3 - 2.0 * r * b1 * b2 + r * r * b1 * b1 * b1
            y1[node], y2[node], y3[node] = a1, a2, a3
        c_total = y1[self.root]
        if y2[self.root] == 0.0:
            return (c_total, 0.0, 0.0)
        c_far = y2[self.root] ** 2 / y3[self.root] if y3[self.root] != 0 else 0.0
        c_far = min(max(c_far, 0.0), c_total)
        r_pi = -(y3[self.root] ** 2) / (y2[self.root] ** 3) if y2[self.root] else 0.0
        r_pi = max(r_pi, 0.0)
        c_near = c_total - c_far
        return (c_near, r_pi, c_far)

    def _topological(self) -> List[str]:
        order: List[str] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(self._children[node])
        return order
