"""Canned testbenches for arc delay, SIS/MIS and flip-flop studies.

Each testbench builds a small circuit around a device-level gate
(:mod:`repro.spice.gates`), applies ramp stimulus, simulates, and measures.
The Fig 4 setup of the paper — a NAND2 driving an FO3 inverter load — maps
directly onto :func:`mis_sis_delays`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.spice.devices import MosParams, NMOS_16NM, PMOS_16NM
from repro.spice.gates import add_dff, add_inverter, add_nand
from repro.spice.measure import (
    delay_between,
    slew_to_ramp_duration,
    transition_time,
)
from repro.spice.network import GROUND, Circuit
from repro.spice.stimulus import Constant, PiecewiseLinear, Ramp
from repro.spice.transient import simulate

DEFAULT_VDD = 0.8


@dataclass
class ArcMeasurement:
    """One measured timing arc: delay and output slew, both in ps."""

    delay: float
    out_slew: float


def _fanout_load(circuit: Circuit, net: str, fanout: int, vdd_node: str,
                 nmos: MosParams, pmos: MosParams) -> None:
    """Attach ``fanout`` unit inverters as a realistic load on ``net``."""
    for i in range(fanout):
        add_inverter(
            circuit, f"load{i}", net, circuit.node(f"load{i}.out"),
            vdd_node=vdd_node, nmos=nmos, pmos=pmos,
        )


def inverter_delay(
    vdd: float = DEFAULT_VDD,
    temp_c: float = 25.0,
    size: float = 1.0,
    load_ff: float = 4.0,
    in_slew: float = 20.0,
    direction: str = "fall",
    nmos: MosParams = NMOS_16NM,
    pmos: MosParams = PMOS_16NM,
    dt: float = 0.25,
) -> ArcMeasurement:
    """Delay/slew of a single inverter driving a lumped capacitive load.

    ``direction`` is the *output* transition direction.
    """
    circuit = Circuit("inv_tb", temp_c=temp_c)
    vdd_node = circuit.add_vdd(vdd)
    add_inverter(circuit, "dut", "in", "out", vdd_node, size=size, nmos=nmos, pmos=pmos)
    circuit.add_capacitor("out", GROUND, load_ff)

    in_rise = direction == "fall"  # rising input makes the output fall
    ramp = _input_ramp(vdd, in_slew, rising=in_rise)
    circuit.add_source("in", ramp)

    horizon = _horizon(in_slew, load_ff, size)
    result = simulate(circuit, t_stop=horizon, dt=dt, t_start=-horizon / 2)
    return _measure_arc(result, "in", "out", vdd,
                        "rise" if in_rise else "fall", direction)


def nand2_arc_delay(
    vdd: float = DEFAULT_VDD,
    temp_c: float = 25.0,
    size: float = 1.0,
    fanout: int = 3,
    in_slew: float = 20.0,
    input_direction: str = "rise",
    other_input: str = "high",
    mis_offset: Optional[float] = None,
    nmos: MosParams = NMOS_16NM,
    pmos: MosParams = PMOS_16NM,
    dt: float = 0.25,
) -> ArcMeasurement:
    """Arc delay of NAND2 input IN -> output with an FO-``fanout`` load.

    This reproduces the paper's Fig 4 testbench. ``other_input`` selects
    the state of IN1:

    - ``"high"``: IN1 tied to VDD (single-input switching, SIS);
    - ``"switching"``: IN1 gets the same ramp as IN offset by
      ``mis_offset`` ps (multi-input switching, MIS).

    The measured arc is IN -> OUT; a rising IN produces a falling OUT when
    IN1 is high.
    """
    circuit = Circuit("nand2_tb", temp_c=temp_c)
    vdd_node = circuit.add_vdd(vdd)
    add_nand(circuit, "dut", ["in", "in1"], "out", vdd_node, size=size,
             nmos=nmos, pmos=pmos)
    _fanout_load(circuit, "out", fanout, vdd_node, nmos, pmos)

    rising = input_direction == "rise"
    circuit.add_source("in", _input_ramp(vdd, in_slew, rising=rising))
    if other_input == "high":
        circuit.add_source("in1", Constant(vdd))
    elif other_input == "switching":
        if mis_offset is None:
            raise SimulationError("mis_offset required when other_input='switching'")
        circuit.add_source("in1", _input_ramp(vdd, in_slew, rising=rising,
                                              t_start=mis_offset))
    else:
        raise SimulationError(f"bad other_input {other_input!r}")

    horizon = _horizon(in_slew, 4.0 * fanout, size) + abs(mis_offset or 0.0)
    result = simulate(circuit, t_stop=horizon, dt=dt, t_start=-horizon / 2)
    out_dir = "fall" if rising else "rise"
    return _measure_arc(result, "in", "out", vdd, input_direction, out_dir)


@dataclass
class MisStudy:
    """SIS-vs-MIS comparison for one arc (the paper's Fig 4 experiment).

    ``sweep`` holds ``(in1_offset, arc_delay)`` pairs over the IN1
    arrival-time sweep.
    """

    input_direction: str
    vdd: float
    sis_delay: float
    sweep: List[Tuple[float, float]]

    @property
    def mis_min_delay(self) -> float:
        """Minimum arc delay over the sweep — the hold-critical MIS delay
        (dramatic when falling inputs enable the parallel pull-up)."""
        return min(d for _, d in self.sweep)

    @property
    def mis_simultaneous_delay(self) -> float:
        """Arc delay with IN1 arriving simultaneously — the setup-critical
        MIS delay (charge sharing slows the series stack)."""
        return min(self.sweep, key=lambda p: abs(p[0]))[1]

    @property
    def speedup_ratio(self) -> float:
        """mis_min / sis; < 1 means MIS makes the arc faster."""
        return self.mis_min_delay / self.sis_delay

    @property
    def slowdown_ratio(self) -> float:
        """mis_simultaneous / sis; > 1 means MIS makes the arc slower."""
        return self.mis_simultaneous_delay / self.sis_delay


def mis_sis_delays(
    vdd: float = DEFAULT_VDD,
    temp_c: float = 25.0,
    input_direction: str = "rise",
    in_slew: float = 20.0,
    fanout: int = 3,
    offsets: Optional[Sequence[float]] = None,
    dt: float = 0.25,
) -> MisStudy:
    """Run the Fig 4 experiment: NAND2 arc delay, SIS vs a MIS offset sweep.

    The paper's procedure: ramp IN, sweep the arrival offset of an
    identical ramp on IN1, and compare the resulting arc delays against
    the SIS reference (IN1 tied to VDD). Falling simultaneous inputs make
    the rising output much faster (parallel PMOS, hold-critical); rising
    near-simultaneous inputs make the falling output slower (series-stack
    charge sharing, setup-critical).
    """
    sis = nand2_arc_delay(
        vdd=vdd, temp_c=temp_c, input_direction=input_direction,
        in_slew=in_slew, fanout=fanout, other_input="high", dt=dt,
    ).delay
    if offsets is None:
        offsets = np.linspace(-2.0 * in_slew, 2.0 * in_slew, 9)
    sweep: List[Tuple[float, float]] = []
    for off in offsets:
        try:
            d = nand2_arc_delay(
                vdd=vdd, temp_c=temp_c, input_direction=input_direction,
                in_slew=in_slew, fanout=fanout, other_input="switching",
                mis_offset=float(off), dt=dt,
            ).delay
        except SimulationError:
            continue  # some offsets produce no output transition
        sweep.append((float(off), d))
    if not sweep:
        raise SimulationError("MIS sweep produced no measurable transitions")
    return MisStudy(input_direction=input_direction, vdd=vdd,
                    sis_delay=sis, sweep=sweep)


@dataclass
class FlopTrial:
    """Outcome of one flip-flop launch trial."""

    setup_time: float
    hold_time: float
    c2q_delay: Optional[float]  # None when the flop failed to capture

    @property
    def captured(self) -> bool:
        return self.c2q_delay is not None


def dff_capture_trial(
    setup_time: float,
    hold_time: float,
    vdd: float = DEFAULT_VDD,
    temp_c: float = 25.0,
    data_slew: float = 15.0,
    clk_slew: float = 10.0,
    load_ff: float = 4.0,
    dt: float = 0.5,
) -> FlopTrial:
    """Launch a rising D through the six-NAND flop and measure c2q.

    The data input rises ``setup_time`` ps before the active clock edge and
    falls back ``hold_time`` ps after it; Q must rise and stay risen for
    the capture to count. This is exactly the characterization experiment
    behind the paper's Fig 10 surfaces.
    """
    circuit = Circuit("dff_tb", temp_c=temp_c)
    vdd_node = circuit.add_vdd(vdd)
    add_dff(circuit, "dut", "d", "clk", "q", vdd_node=vdd_node)
    circuit.add_capacitor("q", GROUND, load_ff)

    clk_edge = 0.0
    clk_ramp = slew_to_ramp_duration(clk_slew)
    d_ramp = slew_to_ramp_duration(data_slew)
    settle = 400.0

    if setup_time > 220.0:
        raise SimulationError("setup_time beyond the testbench priming window")

    # Clock: a priming pulse during settling captures D=0 (so Q starts
    # low and the measured edge produces a clean rising Q), then the
    # measured rising edge at t=0 (50% crossing).
    prime_rise = clk_edge - 0.85 * settle
    prime_fall = prime_rise + 100.0
    clk = PiecewiseLinear(
        [
            prime_rise - clk_ramp / 2.0,
            prime_rise + clk_ramp / 2.0,
            prime_fall - clk_ramp / 2.0,
            prime_fall + clk_ramp / 2.0,
            clk_edge - clk_ramp / 2.0,
            clk_edge + clk_ramp / 2.0,
        ],
        [0.0, vdd, vdd, 0.0, 0.0, vdd],
    )
    # Data: low, rises to be stable setup_time before the edge, falls
    # hold_time after the edge.
    d_rise_mid = clk_edge - setup_time
    d_fall_mid = clk_edge + hold_time
    if d_fall_mid - d_rise_mid < (d_ramp + d_ramp) / 2.0:
        raise SimulationError("data pulse too narrow for its slews")
    data = PiecewiseLinear(
        [
            d_rise_mid - d_ramp / 2.0,
            d_rise_mid + d_ramp / 2.0,
            d_fall_mid - d_ramp / 2.0,
            d_fall_mid + d_ramp / 2.0,
        ],
        [0.0, vdd, vdd, 0.0],
    )
    circuit.add_source("clk", clk)
    circuit.add_source("d", data)

    t_stop = clk_edge + 400.0
    result = simulate(circuit, t_stop=t_stop, dt=dt, t_start=clk_edge - settle,
                      record=["clk", "d", "q"])

    from repro.spice.measure import crossing_time

    t_clk = crossing_time(result.times, result.wave("clk"), 0.5 * vdd, "rise",
                          after=clk_edge - 3.0 * clk_slew)
    if t_clk is None:
        raise SimulationError("clock edge missing from simulation window")
    t_q = crossing_time(result.times, result.wave("q"), 0.5 * vdd, "rise",
                        after=t_clk - 2.0 * clk_slew)
    if t_q is None:
        return FlopTrial(setup_time, hold_time, None)
    if result.final("q") < 0.5 * vdd:  # captured then lost (hold failure)
        return FlopTrial(setup_time, hold_time, None)
    return FlopTrial(setup_time, hold_time, t_q - t_clk)


def _input_ramp(vdd: float, slew: float, rising: bool, t_start: float = 0.0) -> Ramp:
    """A full-swing input ramp whose 20-80% slew equals ``slew``, centered
    so its 50% crossing lands at ``t_start``."""
    duration = slew_to_ramp_duration(slew)
    v0, v1 = (0.0, vdd) if rising else (vdd, 0.0)
    return Ramp(t_start=t_start - duration / 2.0, duration=duration, v0=v0, v1=v1)


def _horizon(in_slew: float, load_ff: float, size: float) -> float:
    """A safe simulation window for a single-arc measurement."""
    return 60.0 + 4.0 * in_slew + 12.0 * load_ff / max(size, 0.25)


def _measure_arc(result, in_node: str, out_node: str, vdd: float,
                 in_dir: str, out_dir: str) -> ArcMeasurement:
    delay = delay_between(
        result.times, result.wave(in_node), result.wave(out_node),
        vdd, in_dir, out_dir,
    )
    slew = transition_time(result.times, result.wave(out_node), vdd, out_dir)
    return ArcMeasurement(delay=delay, out_slew=slew)
