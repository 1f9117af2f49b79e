"""Metal-fill effects on timing.

Section 4, comment 2: "Oncoming worries include metal fill effects, as
density constraints continue to tighten and the freedom to define fill
exclude windows (e.g., around clock routes) decreases. How to comprehend
'actual' foundry-specific fill early in the design closure process is an
open issue."

This module models exactly that loop: a density rule per routing tile, a
fill engine that inserts floating fill where density is short, coupling
from fill into the signal nets crossing each filled tile (delivered
through ``Net.extra_cap``, which parasitic synthesis already honours),
and an *exclude policy* that can protect clock nets — whose erosion the
paper warns about — at the cost of requiring more fill elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.beol.stack import BeolStack
from repro.errors import CornerError
from repro.netlist.design import Design
from repro.parasitics.synthesis import ParasiticExtractor

Tile = Tuple[str, int, int]  # (layer, tile_x, tile_y)


@dataclass(frozen=True)
class FillPolicy:
    """Density rule and fill electrical model.

    Attributes:
        min_density: required metal density per tile (0..1).
        tile_um: tile edge length, um.
        fill_cap_per_um: coupling capacitance added per um of signal wire
            in a filled tile, fF/um.
        exclude_clock_nets: keep fill out of tiles traversed by clock
            nets (the shrinking "fill exclude window").
    """

    min_density: float = 0.25
    tile_um: float = 40.0
    fill_cap_per_um: float = 0.04
    exclude_clock_nets: bool = True

    def __post_init__(self):
        if not 0.0 < self.min_density < 1.0:
            raise CornerError("min_density must be in (0, 1)")
        if self.tile_um <= 0:
            raise CornerError("tile size must be positive")


@dataclass
class FillReport:
    """What the fill engine did."""

    tiles_total: int
    tiles_filled: int
    tiles_excluded: int
    nets_affected: int
    total_added_cap: float  # fF
    per_net_cap: Dict[str, float] = field(default_factory=dict)

    @property
    def fill_fraction(self) -> float:
        if self.tiles_total == 0:
            return 0.0
        return self.tiles_filled / self.tiles_total


class FillEngine:
    """Density analysis and fill insertion for one design."""

    def __init__(self, design: Design, extractor: ParasiticExtractor,
                 stack: BeolStack, policy: FillPolicy = FillPolicy(),
                 clock_nets: Optional[Set[str]] = None):
        self.design = design
        self.extractor = extractor
        self.stack = stack
        self.policy = policy
        self.clock_nets = clock_nets or {"clk"}

    # ------------------------------------------------------------------ #

    def net_tiles(self, net_name: str) -> List[Tile]:
        """Tiles a net's route crosses (straight-line approximation along
        its bounding box from the driver region)."""
        para = self.extractor.extract(net_name)
        xs, ys = [], []
        for ref in self.design.get_net(net_name).pins():
            if ref.is_port:
                continue
            loc = self.design.instance(ref.instance).location
            if loc is not None:
                xs.append(loc[0])
                ys.append(loc[1])
        if not xs:
            return []
        t = self.policy.tile_um
        tiles: List[Tile] = []
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        for tx in range(int(x_lo // t), int(x_hi // t) + 1):
            for ty in range(int(y_lo // t), int(y_hi // t) + 1):
                tiles.append((para.layer_name, tx, ty))
        return tiles

    def density_map(self) -> Dict[Tile, float]:
        """Metal density per tile: routed wire area / tile area."""
        t = self.policy.tile_um
        area = t * t
        density: Dict[Tile, float] = {}
        for net_name, net in self.design.nets.items():
            if net.driver is None or not net.loads:
                continue
            tiles = self.net_tiles(net_name)
            if not tiles:
                continue
            para = self.extractor.extract(net_name)
            layer = self.stack.layer(para.layer_name)
            wire_area = para.length * layer.pitch
            share = wire_area / len(tiles)
            for tile in tiles:
                density[tile] = density.get(tile, 0.0) + share / area
        return density

    def insert_fill(self) -> FillReport:
        """Fill under-dense tiles and couple the fill into signal nets.

        Every net crossing a filled tile gains
        ``fill_cap_per_um * (net length / tiles crossed)`` of extra
        capacitance per filled tile. Clock-net tiles are excluded when
        the policy protects them.
        """
        density = self.density_map()
        excluded: Set[Tile] = set()
        if self.policy.exclude_clock_nets:
            for net_name in self.clock_nets & set(self.design.nets):
                excluded.update(self.net_tiles(net_name))

        filled = {
            tile for tile, d in density.items()
            if d < self.policy.min_density and tile not in excluded
        }

        report = FillReport(
            tiles_total=len(density),
            tiles_filled=len(filled),
            tiles_excluded=len(excluded & set(density)),
            nets_affected=0,
            total_added_cap=0.0,
        )
        for net_name, net in self.design.nets.items():
            if net.driver is None or not net.loads:
                continue
            tiles = self.net_tiles(net_name)
            if not tiles:
                continue
            hit = sum(1 for tile in tiles if tile in filled)
            if hit == 0:
                continue
            para = self.extractor.extract(net_name)
            added = (
                self.policy.fill_cap_per_um
                * (para.length / len(tiles))
                * hit
            )
            net.extra_cap += added
            report.per_net_cap[net_name] = added
            report.nets_affected += 1
            report.total_added_cap += added
        # Parasitics must be re-extracted to see the new caps.
        self.extractor.invalidate()
        return report
