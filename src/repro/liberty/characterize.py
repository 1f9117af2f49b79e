"""Simulation-based characterization against :mod:`repro.spice`.

The analytic factory (:mod:`repro.liberty.stdcells`) is the fast path used
by STA and closure; this module is the slow, golden path: it runs the
transistor-level simulator over a (slew, load) grid to produce measured
NLDM tables, and characterizes flip-flop constraints with the industry
pushout criterion (setup/hold time = the data offset at which c2q degrades
by 10% over its comfortable-margin value — the fixed criterion whose
pessimism the paper's Fig 10 and [23] exploit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.liberty.arcs import ArcTiming
from repro.liberty.tables import LookupTable2D
from repro.spice.devices import NMOS_16NM, PMOS_16NM, vt_flavor_params
from repro.spice.gates import add_inverter, add_nand, add_nor
from repro.spice.network import GROUND, Circuit
from repro.spice.stimulus import Constant
from repro.spice.testbench import dff_capture_trial, _input_ramp, _measure_arc
from repro.spice.transient import simulate

CHAR_SLEW_GRID = (5.0, 20.0, 60.0)
CHAR_LOAD_GRID = (2.0, 8.0, 24.0)
PUSHOUT_FRACTION = 0.10

#: Characterizable gate families: builder, input pin names, and the
#: non-controlling level for held inputs (as a fraction of VDD).
_CHAR_GATES = {
    "inv": (add_inverter, ("A",), None),
    "nand2": (add_nand, ("A", "B"), 1.0),
    "nand3": (add_nand, ("A", "B", "C"), 1.0),
    "nor2": (add_nor, ("A", "B"), 0.0),
    "nor3": (add_nor, ("A", "B", "C"), 0.0),
}


def characterize_inverter(
    size: float = 1.0,
    flavor: str = "svt",
    vdd: float = 0.8,
    temp_c: float = 25.0,
    slew_grid: Sequence[float] = CHAR_SLEW_GRID,
    load_grid: Sequence[float] = CHAR_LOAD_GRID,
    dt: float = 0.25,
) -> dict:
    """Measured NLDM tables for an inverter, per output direction.

    Returns ``{"rise": ArcTiming, "fall": ArcTiming}`` with measured delay
    and slew tables (no sigma tables — Monte Carlo characterization is a
    separate, much slower pass).
    """
    nmos = vt_flavor_params(NMOS_16NM, flavor)
    pmos = vt_flavor_params(PMOS_16NM, flavor)
    out = {}
    for direction in ("rise", "fall"):
        delays, slews = [], []
        for s in slew_grid:
            drow, srow = [], []
            for load in load_grid:
                d, osl = _measure_inverter_point(
                    size, vdd, temp_c, s, load, direction, nmos, pmos, dt
                )
                drow.append(d)
                srow.append(osl)
            delays.append(drow)
            slews.append(srow)
        out[direction] = ArcTiming(
            delay=LookupTable2D(slew_grid, load_grid, delays),
            slew=LookupTable2D(slew_grid, load_grid, slews),
        )
    return out


def _measure_inverter_point(
    size, vdd, temp_c, in_slew, load, direction, nmos, pmos, dt
) -> Tuple[float, float]:
    circuit = Circuit("char_tb", temp_c=temp_c)
    vdd_node = circuit.add_vdd(vdd)
    add_inverter(circuit, "dut", "in", "out", vdd_node, size=size,
                 nmos=nmos, pmos=pmos)
    circuit.add_capacitor("out", GROUND, load)
    in_rising = direction == "fall"
    circuit.add_source("in", _input_ramp(vdd, in_slew, rising=in_rising))
    horizon = 80.0 + 4.0 * in_slew + 14.0 * load / max(size, 0.25)
    result = simulate(circuit, t_stop=horizon, dt=dt, t_start=-horizon / 2)
    m = _measure_arc(result, "in", "out", vdd,
                     "rise" if in_rising else "fall", direction)
    return m.delay, m.out_slew


def characterize_gate(
    footprint: str,
    size: float = 1.0,
    flavor: str = "svt",
    vdd: float = 0.8,
    temp_c: float = 25.0,
    slew_grid: Sequence[float] = CHAR_SLEW_GRID,
    load_grid: Sequence[float] = CHAR_LOAD_GRID,
    dt: float = 0.25,
) -> dict:
    """Measured NLDM tables for a gate family's first-input arc.

    Supports the inverting families (``inv``/``nand2``/``nand3``/
    ``nor2``/``nor3``): the first input switches, the others are held at
    their non-controlling level (VDD for NAND, GND for NOR) — the SIS
    characterization convention. Returns ``{"rise": ArcTiming,
    "fall": ArcTiming}`` keyed by output direction.
    """
    try:
        builder, pins, noncontrolling = _CHAR_GATES[footprint]
    except KeyError:
        raise SimulationError(
            f"cannot characterize footprint {footprint!r}; "
            f"supported: {sorted(_CHAR_GATES)}"
        ) from None
    if footprint == "inv":
        return characterize_inverter(size=size, flavor=flavor, vdd=vdd,
                                     temp_c=temp_c, slew_grid=slew_grid,
                                     load_grid=load_grid, dt=dt)
    nmos = vt_flavor_params(NMOS_16NM, flavor)
    pmos = vt_flavor_params(PMOS_16NM, flavor)
    out = {}
    for direction in ("rise", "fall"):
        delays, slews = [], []
        for s in slew_grid:
            drow, srow = [], []
            for load in load_grid:
                d, osl = _measure_gate_point(
                    builder, len(pins), noncontrolling, size, vdd, temp_c,
                    s, load, direction, nmos, pmos, dt,
                )
                drow.append(d)
                srow.append(osl)
            delays.append(drow)
            slews.append(srow)
        out[direction] = ArcTiming(
            delay=LookupTable2D(slew_grid, load_grid, delays),
            slew=LookupTable2D(slew_grid, load_grid, slews),
        )
    return out


def _measure_gate_point(
    builder, n_inputs, noncontrolling, size, vdd, temp_c, in_slew, load,
    direction, nmos, pmos, dt,
) -> Tuple[float, float]:
    circuit = Circuit("char_gate_tb", temp_c=temp_c)
    vdd_node = circuit.add_vdd(vdd)
    inputs = [f"in{i}" for i in range(n_inputs)]
    builder(circuit, "dut", inputs, "out", vdd_node, size=size,
            nmos=nmos, pmos=pmos)
    circuit.add_capacitor("out", GROUND, load)
    in_rising = direction == "fall"  # all families here are inverting
    circuit.add_source(inputs[0], _input_ramp(vdd, in_slew, rising=in_rising))
    for other in inputs[1:]:
        circuit.add_source(other, Constant(noncontrolling * vdd))
    horizon = 100.0 + 4.0 * in_slew + 18.0 * load / max(size, 0.25)
    result = simulate(circuit, t_stop=horizon, dt=dt, t_start=-horizon / 2)
    m = _measure_arc(result, inputs[0], "out", vdd,
                     "rise" if in_rising else "fall", direction)
    return m.delay, m.out_slew


@dataclass
class FlopCharacterization:
    """Pushout-criterion flop characterization results (all in ps)."""

    c2q_nominal: float  # c2q with generous setup & hold
    setup_time: float  # data offset where c2q degrades by the pushout
    hold_time: float
    pushout_fraction: float = PUSHOUT_FRACTION


def characterize_flop(
    vdd: float = 0.8,
    temp_c: float = 25.0,
    generous: float = 150.0,
    resolution: float = 1.0,
    pushout: float = PUSHOUT_FRACTION,
) -> FlopCharacterization:
    """Characterize the six-NAND flop with the fixed pushout criterion.

    Binary-searches the setup (then hold) offset at which the measured c2q
    exceeds ``(1 + pushout)`` times its comfortable-margin value.
    """
    base = dff_capture_trial(setup_time=generous, hold_time=generous,
                             vdd=vdd, temp_c=temp_c)
    if not base.captured:
        raise SimulationError("flop failed to capture even with generous margins")
    c2q_limit = base.c2q_delay * (1.0 + pushout)

    setup = _search_threshold(
        lambda s: _trial_c2q(s, generous, vdd, temp_c),
        lo=1.0, hi=generous, limit=c2q_limit, resolution=resolution,
    )
    hold = _search_threshold(
        lambda h: _trial_c2q(generous, h, vdd, temp_c),
        lo=0.0, hi=generous, limit=c2q_limit, resolution=resolution,
    )
    return FlopCharacterization(
        c2q_nominal=base.c2q_delay, setup_time=setup, hold_time=hold,
        pushout_fraction=pushout,
    )


def c2q_vs_setup_curve(
    setups: Sequence[float],
    hold_time: float = 150.0,
    vdd: float = 0.8,
    temp_c: float = 25.0,
) -> list:
    """(setup, c2q-or-None) samples — the raw data behind Fig 10(i)."""
    return [(s, _trial_c2q(s, hold_time, vdd, temp_c)) for s in setups]


def c2q_vs_hold_curve(
    holds: Sequence[float],
    setup_time: float = 150.0,
    vdd: float = 0.8,
    temp_c: float = 25.0,
) -> list:
    """(hold, c2q-or-None) samples — the raw data behind Fig 10(ii)."""
    return [(h, _trial_c2q(setup_time, h, vdd, temp_c)) for h in holds]


def _trial_c2q(setup: float, hold: float, vdd: float, temp_c: float) -> Optional[float]:
    try:
        trial = dff_capture_trial(setup_time=setup, hold_time=hold,
                                  vdd=vdd, temp_c=temp_c)
    except SimulationError:
        return None
    return trial.c2q_delay


def _search_threshold(c2q_of, lo: float, hi: float, limit: float,
                      resolution: float) -> float:
    """Smallest offset (to ``resolution``) whose c2q stays within ``limit``.

    Assumes c2q is nonincreasing in the offset: large offsets pass, small
    ones fail (or never capture).
    """
    if (c2q_hi := c2q_of(hi)) is None or c2q_hi > limit:
        raise SimulationError("pushout search: even the generous margin fails")
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        c2q = c2q_of(mid)
        if c2q is None or c2q > limit:
            lo = mid
        else:
            hi = mid
    return hi
