"""Common path pessimism removal (CPPR).

With OCV derating, the shared portion of launch and capture clock paths is
counted as both late (on the launch side) and early (on the capture side),
which is physically impossible — one wire cannot be simultaneously slow
and fast. CPPR credits back the (late - early) difference at the deepest
pin common to both clock paths.
"""

from __future__ import annotations

from typing import List, Optional

from repro.netlist.design import PinRef


def clock_path_pins(sta, ck_ref: PinRef, direction: str = "rise") -> List[PinRef]:
    """Pins along the worst late clock path from the root to ``ck_ref``."""
    path = sta.path_to(ck_ref, direction, "setup")
    return [point.ref for point in path.points]


def launch_clock_pin(sta, endpoint) -> Optional[PinRef]:
    """The launch flop's CK pin on the worst path into an endpoint, i.e.
    the last clock-network pin along the data path's prefix."""
    path = sta.worst_path(endpoint)
    launch = None
    for point in path.points:
        if point.ref in sta.graph.clock_pins:
            launch = point.ref
        else:
            break
    return launch


def cppr_credit(sta, launch_ck: PinRef, capture_ck: PinRef,
                direction: str = "rise") -> float:
    """The CPPR credit (ps, non-negative) for a launch/capture pair.

    Equal to (late - early) arrival difference at the deepest pin common
    to both clock paths. Zero when the paths share only the root and the
    root has no early/late split.
    """
    launch_path = clock_path_pins(sta, launch_ck, direction)
    capture_path = clock_path_pins(sta, capture_ck, direction)
    common: Optional[PinRef] = None
    for a, b in zip(launch_path, capture_path):
        if a == b:
            common = a
        else:
            break
    if common is None:
        return 0.0
    arr = sta.prop.at(common, direction)
    if not arr.valid:
        return 0.0
    return sta.algebra.max(arr.late - arr.early, 0.0)


def endpoint_cppr_credit(sta, endpoint) -> float:
    """CPPR credit for an endpoint's worst launch/capture pair (0 when the
    endpoint has no check or no launching clock pin)."""
    if endpoint.check is None:
        return 0.0
    launch = launch_clock_pin(sta, endpoint)
    if launch is None:
        return 0.0
    return cppr_credit(sta, launch, endpoint.check.clock_pin)
