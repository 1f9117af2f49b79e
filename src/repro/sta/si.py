"""Signal-integrity (coupling noise) delta delays.

A switching aggressor doubles the effective coupling capacitance seen by
a victim transition (Miller effect). The incremental delay is evaluated
through the victim driver's own NLDM table: delta = delay at
(load + 2*Cc_aligned) minus delay at (load + Cc_aligned), where only an
``alignment_fraction`` of the coupling is assumed to switch adversarially
in the same timing window.

The deltas are consumed by :func:`repro.sta.propagation.propagate`, which
adds them to late wire delays and subtracts them from early ones — the
"noise closure" entry of the paper's old-vs-new table (Fig 2).
"""

from __future__ import annotations

from typing import Dict

from repro.parasitics.synthesis import ParasiticExtractor
from repro.sta.graph import TimingGraph

#: Fraction of coupling capacitance whose aggressors are assumed to align.
DEFAULT_ALIGNMENT = 0.5
#: Representative input slew for the incremental-delay evaluation, ps.
_EVAL_SLEW = 25.0


def net_coupling_delta(
    graph: TimingGraph,
    parasitics: ParasiticExtractor,
    net,
    alignment_fraction: float = DEFAULT_ALIGNMENT,
) -> float:
    """SI delta delay of one net, ps (0.0 when coupling cannot bite).

    Depends on the net's parasitics, its driver cell's arcs and its load
    pin caps — exactly the quantities a footprint-preserving ECO can
    change — so the incremental timer re-evaluates it per touched net.
    """
    if net.driver is None or net.driver.is_port or not net.loads:
        return 0.0
    para = parasitics.extract(net.name)
    cc = para.coupling_cap * alignment_fraction
    if cc <= 0.0:
        return 0.0
    cell = graph.cell_of(net.driver)
    arcs = cell.arcs_to(net.driver.pin)
    if not arcs:
        return 0.0
    base_load = para.driver_load(parasitics.pin_caps_total(net.name))
    worst_delta = 0.0
    for arc in arcs:
        for direction in arc.timing:
            quiet, _ = arc.delay_and_slew(direction, _EVAL_SLEW, base_load)
            noisy, _ = arc.delay_and_slew(
                direction, _EVAL_SLEW, base_load + cc
            )
            worst_delta = max(worst_delta, noisy - quiet)
    return worst_delta


def coupling_deltas(
    graph: TimingGraph,
    parasitics: ParasiticExtractor,
    alignment_fraction: float = DEFAULT_ALIGNMENT,
) -> Dict[str, float]:
    """Per-net SI delta delay (ps), keyed by net name.

    Nets without an instance driver (port-driven) or without coupling get
    no entry.
    """
    deltas: Dict[str, float] = {}
    for net in graph.design.nets.values():
        delta = net_coupling_delta(graph, parasitics, net,
                                   alignment_fraction)
        if delta > 0.0:
            deltas[net.name] = delta
    return deltas


def total_si_impact(deltas: Dict[str, float]) -> float:
    """Aggregate SI pushout across the design, ps (reporting metric)."""
    return sum(deltas.values())
