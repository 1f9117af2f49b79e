"""A practical MIS derate model and its hold-signoff application.

Conventional libraries characterize single-input switching only; MIS can
make a NAND/NOR arc dramatically faster (parallel pull networks), which is
*unsafe to ignore in hold analysis* — a path assumed to be slow enough may
actually be much faster. Following the spirit of [Lutkemeyer TAU'15], we
derive a simple derate factor per (gate family, #inputs) from simulator
characterization and apply it to early (hold) delays of gates whose input
arrival windows overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TimingError
from repro.mis.analysis import Fig4Row, mis_window_probability
from repro.netlist.design import PinRef
from repro.sta.graph import CellEdge


@dataclass
class MisDerateModel:
    """Speedup derates: early delay is multiplied by the derate when all
    inputs of a gate can switch together.

    ``speedup[(footprint_prefix, n_inputs)]`` holds the worst (smallest)
    MIS/SIS delay ratio; unknown combinations fall back to a conservative
    ``1/n_inputs`` bound (n parallel devices at best n-times the drive).
    """

    speedup: Dict[Tuple[str, int], float] = field(default_factory=dict)

    @classmethod
    def from_fig4_rows(cls, rows: List[Fig4Row]) -> "MisDerateModel":
        """Build the NAND2 entry from measured Fig 4 rows (the
        hold-critical falling-input speedups)."""
        model = cls()
        ratios = [r.ratio for r in rows if r.hold_critical]
        if not ratios:
            raise TimingError("no hold-critical MIS rows to fit from")
        model.speedup[("nand", 2)] = min(ratios)
        return model

    @classmethod
    def conservative(cls) -> "MisDerateModel":
        """The 1/n parallel-drive bound for common families."""
        model = cls()
        for fam in ("nand", "nor"):
            for n in (2, 3):
                model.speedup[(fam, n)] = 1.0 / n
        return model

    def factor(self, footprint: str, n_inputs: int) -> float:
        """MIS speedup factor (<= 1) for a gate family."""
        if n_inputs < 2:
            return 1.0
        for (fam, n), value in self.speedup.items():
            if footprint.startswith(fam) and n == n_inputs:
                return value
        if footprint.startswith(("nand", "nor", "aoi", "oai")):
            return 1.0 / n_inputs
        return 1.0


@dataclass
class MisHoldAdjustment:
    """Extra hold pessimism at one endpoint from MIS-susceptible stages."""

    endpoint: PinRef
    original_slack: float
    adjusted_slack: float
    susceptible_stages: int

    @property
    def delta(self) -> float:
        return self.original_slack - self.adjusted_slack


def mis_hold_adjustments(
    sta,
    report,
    model: Optional[MisDerateModel] = None,
    overlap_window: float = 30.0,
    limit: int = 50,
) -> List[MisHoldAdjustment]:
    """Recompute hold slacks assuming MIS speedups on susceptible stages.

    A stage is susceptible when its gate has 2+ inputs whose early
    arrivals overlap within ``overlap_window`` ps. The stage's early
    delay contribution is scaled by the model's speedup factor weighted
    by the overlap probability.
    """
    model = model or MisDerateModel.conservative()
    if sta.prop is None:
        raise TimingError("run() must be called before MIS hold analysis")
    out: List[MisHoldAdjustment] = []
    for endpoint in report.endpoints("hold")[:limit]:
        path = sta.worst_path(endpoint)
        reduction = 0.0
        susceptible = 0
        for point in path.points:
            if point.kind != "cell":
                continue
            pred = sta.prop.at(point.ref, point.direction).pred_early
            if pred is None or not isinstance(pred[0], CellEdge):
                continue
            edge = pred[0]
            cell = sta.graph.cell_of(point.ref)
            n_inputs = len(cell.input_pins())
            factor = model.factor(cell.footprint, n_inputs)
            if factor >= 1.0:
                continue
            weight = _input_overlap_weight(sta, edge, overlap_window)
            if weight <= 0.0:
                continue
            susceptible += 1
            effective = 1.0 - weight * (1.0 - factor)
            reduction += point.increment * (1.0 - effective)
        out.append(
            MisHoldAdjustment(
                endpoint=endpoint.endpoint,
                original_slack=endpoint.slack,
                adjusted_slack=endpoint.slack - reduction,
                susceptible_stages=susceptible,
            )
        )
    return out


def _input_overlap_weight(sta, edge: CellEdge, window: float) -> float:
    """Overlap weight of the *other* inputs of a gate vs the arc input."""
    inst = sta.graph.instance_of(edge.dst)
    cell = sta.graph.cell_of(edge.dst)
    ref_arr = None
    others: List[float] = []
    for pin in cell.input_pins():
        ref = PinRef(inst.name, pin.name)
        _, early = sta.prop.best_early(ref)
        if early == float("inf"):
            continue
        if pin.name == edge.arc.related_pin:
            ref_arr = early
        else:
            others.append(early)
    if ref_arr is None or not others:
        return 0.0
    return max(
        mis_window_probability(ref_arr, other, window) for other in others
    )
