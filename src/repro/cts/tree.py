"""Clustered buffered clock-tree synthesis.

Generators wire one ideal ``clk`` net to every flop. This module replaces
that with a two-level buffered tree: flops are grouped into spatial
clusters (grid binning on their placement), each cluster gets a leaf
buffer at its centroid, and a root buffer drives the leaf buffers. The
result is a *real* clock network through which STA propagates insertion
delay and skew — and through which CPPR finds common segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import NetlistError
from repro.liberty.library import Library
from repro.netlist.design import Design, PinRef


@dataclass
class CtsReport:
    """What clock-tree synthesis built."""

    clock_net: str
    root_buffer: str
    leaf_buffers: List[str]
    clusters: Dict[str, List[str]]  # leaf buffer -> flop instances

    @property
    def n_clusters(self) -> int:
        return len(self.leaf_buffers)


def synthesize_clock_tree(
    design: Design,
    library: Library,
    clock_net: str = "clk",
    target_cluster_size: int = 8,
    leaf_buffer: str = "BUF_X4_SVT",
    root_buffer: str = "BUF_X8_SVT",
) -> CtsReport:
    """Build a two-level buffered tree on ``clock_net``.

    The flops currently loaded by the clock net are clustered by location;
    each cluster's CK pins move to a new leaf net driven by a leaf buffer,
    and the leaf buffers' inputs move to a root net driven by the root
    buffer, which remains the only load on the original clock source.
    """
    design.bind(library)
    net = design.get_net(clock_net)
    flop_loads = [ref for ref in net.loads if not ref.is_port]
    if not flop_loads:
        raise NetlistError(f"clock net {clock_net!r} has no instance loads")

    clusters = _cluster_by_location(design, flop_loads, target_cluster_size)

    root_inst = design.unique_name("cts_root")
    root_net = design.unique_name("cts_rootnet")
    design.add_instance(
        root_inst,
        root_buffer,
        {"A": clock_net, "Z": root_net},
        location=_centroid(design, flop_loads),
    )

    leaf_names: List[str] = []
    cluster_map: Dict[str, List[str]] = {}
    for idx, cluster in enumerate(clusters):
        leaf_inst = design.unique_name(f"cts_leaf{idx}")
        leaf_net = design.unique_name(f"cts_leafnet{idx}")
        design.add_instance(
            leaf_inst,
            leaf_buffer,
            {"A": root_net, "Z": leaf_net},
            location=_centroid(design, cluster),
        )
        for ref in cluster:
            design.instance(ref.instance).connections[ref.pin] = leaf_net
        leaf_names.append(leaf_inst)
        cluster_map[leaf_inst] = [ref.instance for ref in cluster]

    # The original clock net now feeds only the root buffer.
    design.bind(library)
    design.validate(library)
    return CtsReport(
        clock_net=clock_net,
        root_buffer=root_inst,
        leaf_buffers=leaf_names,
        clusters=cluster_map,
    )


def _cluster_by_location(
    design: Design, refs: List[PinRef], target_size: int
) -> List[List[PinRef]]:
    """Deterministic grid clustering of pins by instance location."""
    n_clusters = max(1, math.ceil(len(refs) / target_size))
    grid = max(1, int(math.sqrt(n_clusters)))

    located = []
    for ref in refs:
        loc = design.instance(ref.instance).location or (0.0, 0.0)
        located.append((loc, ref))
    xs = [l[0][0] for l in located]
    ys = [l[0][1] for l in located]
    x_lo, x_hi = min(xs), max(xs) + 1e-6
    y_lo, y_hi = min(ys), max(ys) + 1e-6

    bins: Dict[Tuple[int, int], List[PinRef]] = {}
    for (x, y), ref in located:
        bx = min(int((x - x_lo) / (x_hi - x_lo) * grid), grid - 1)
        by = min(int((y - y_lo) / (y_hi - y_lo) * grid), grid - 1)
        bins.setdefault((bx, by), []).append(ref)
    # Split oversized bins so leaf buffers stay within drive limits.
    out: List[List[PinRef]] = []
    for key in sorted(bins):
        group = sorted(bins[key], key=str)
        for i in range(0, len(group), target_size * 2):
            out.append(group[i:i + target_size * 2])
    return out


def _centroid(design: Design, refs: List[PinRef]) -> Optional[Tuple[float, float]]:
    xs, ys = [], []
    for ref in refs:
        loc = design.instance(ref.instance).location
        if loc is not None:
            xs.append(loc[0])
            ys.append(loc[1])
    if not xs:
        return None
    return (sum(xs) / len(xs), sum(ys) / len(ys))
