"""Analytical circuit simulator — the framework's SPICE substitute.

The paper's device-level evidence (multi-input switching in Fig 4,
temperature inversion in Fig 6(b), Monte Carlo path-delay asymmetry in
Fig 7, flip-flop interdependency in Fig 10) was produced with HSPICE and
foundry models. This package provides the closest from-scratch equivalent:

- :mod:`repro.spice.devices` — a smoothed alpha-power-law MOSFET model with
  threshold, velocity-saturation, channel-length-modulation, temperature
  (mobility and Vt) and per-device variation parameters;
- :mod:`repro.spice.network` — circuit container (nodes, transistors,
  resistors, capacitors, voltage sources);
- :mod:`repro.spice.stimulus` — waveforms (constants, ramps, pulses,
  piecewise-linear);
- :mod:`repro.spice.transient` — Backward-Euler + Newton transient solver
  and a DC operating-point solver;
- :mod:`repro.spice.measure` — threshold-crossing, delay and slew
  measurements on simulated waveforms;
- :mod:`repro.spice.gates` — transistor-level standard-gate builders
  (INV/NAND/NOR/AOI/OAI and a six-NAND edge-triggered flip-flop);
- :mod:`repro.spice.testbench` — canned testbenches for arc delay, SIS/MIS
  comparison and flop characterization;
- :mod:`repro.spice.montecarlo` — seed-spawned, supervised batch
  evaluation of Monte Carlo samples.
"""

from repro.spice.devices import MosParams, Transistor, NMOS_16NM, PMOS_16NM, vt_flavor_params
from repro.spice.network import Circuit
from repro.spice.stimulus import Constant, Ramp, Pulse, PiecewiseLinear, Waveform
from repro.spice.transient import TransientResult, simulate, dc_operating_point
from repro.spice.measure import crossing_time, delay_between, transition_time

__all__ = [
    "MosParams",
    "Transistor",
    "NMOS_16NM",
    "PMOS_16NM",
    "vt_flavor_params",
    "Circuit",
    "Constant",
    "Ramp",
    "Pulse",
    "PiecewiseLinear",
    "Waveform",
    "TransientResult",
    "simulate",
    "dc_operating_point",
    "crossing_time",
    "delay_between",
    "transition_time",
]
