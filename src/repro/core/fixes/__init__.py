"""Fix engines for the closure loop.

Each engine implements one entry of the Fig 1 fix list and shares the
:class:`FixContext` interface: examine the current STA results, mutate
the design (or constraints), and report what it did. The closure loop
applies them cheapest-first, exactly as [MacDonald 2010] recommends:
Vt-swap, then gate sizing, then buffer insertion, then non-default
routing, then useful skew.
"""

from repro.core.fixes.context import FixContext
from repro.core.fixes.vt_swap import vt_swap_fix
from repro.core.fixes.sizing import area_recovery_fix, sizing_fix
from repro.core.fixes.buffering import (
    buffering_fix,
    hold_buffering_fix,
    slew_fix,
)
from repro.core.fixes.ndr import ndr_fix
from repro.core.fixes.skew import useful_skew_fix

FIX_ENGINES = {
    "vt_swap": vt_swap_fix,
    "sizing": sizing_fix,
    "buffering": buffering_fix,
    "ndr": ndr_fix,
    "useful_skew": useful_skew_fix,
    "hold_buffering": hold_buffering_fix,
    "slew": slew_fix,
    "area_recovery": area_recovery_fix,
}

#: Engines whose every edit preserves the instance footprint (cell swaps
#: only — same pins, same connectivity). After a pass made of these, the
#: incremental timer can re-time just the edited cells' downstream cones.
FOOTPRINT_PRESERVING_ENGINES = frozenset(
    {"vt_swap", "sizing", "area_recovery"}
)


__all__ = [
    "FixContext",
    "FIX_ENGINES",
    "FOOTPRINT_PRESERVING_ENGINES",
    "vt_swap_fix",
    "sizing_fix",
    "area_recovery_fix",
    "buffering_fix",
    "hold_buffering_fix",
    "slew_fix",
    "ndr_fix",
    "useful_skew_fix",
]
