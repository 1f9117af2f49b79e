"""Unit conventions and helpers used across the repro framework.

The whole library works in one consistent engineering unit system chosen so
that products of units need no scale factors:

========== ============ =========================================
Quantity   Unit         Notes
========== ============ =========================================
time       picosecond   ``kohm * fF == ps``
voltage    volt
resistance kiloohm
capacitance femtofarad
current    milliampere  ``V / kohm == mA``; ``fF * V / ps == mA``
power      milliwatt    ``V * mA == mW``
energy     femtojoule   ``mW * ps == fJ``
distance   micrometer
temperature degree C    converted to kelvin only inside device models
========== ============ =========================================

Helper constants convert *into* these canonical units, e.g. ``2 * NS`` is two
nanoseconds expressed in picoseconds.
"""

from __future__ import annotations

# --- time (canonical: ps) ---
PS = 1.0
NS = 1e3
US = 1e6
FS = 1e-3

# --- capacitance (canonical: fF) ---
FF = 1.0
PF = 1e3
AF = 1e-3

# --- resistance (canonical: kohm) ---
KOHM = 1.0
OHM = 1e-3
MEGOHM = 1e3

# --- voltage ---
V = 1.0
MV = 1e-3

# --- current (canonical: mA) ---
MA = 1.0
UA = 1e-3

# --- power (canonical: mW) ---
MW = 1.0
UW = 1e-3

# --- energy (canonical: fJ) ---
FJ = 1.0
PJ = 1e3

# --- distance (canonical: um) ---
UM = 1.0
NM = 1e-3
MM = 1e3

ZERO_CELSIUS_IN_KELVIN = 273.15


def celsius_to_kelvin(temp_c: float) -> float:
    """Convert a temperature from degrees Celsius to kelvin."""
    return temp_c + ZERO_CELSIUS_IN_KELVIN
