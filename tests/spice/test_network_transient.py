"""Tests for the circuit container and the transient/DC solvers."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.spice.gates import add_inverter, add_nand, add_nor
from repro.spice.network import GROUND, Circuit
from repro.spice.stimulus import Constant, Ramp
from repro.spice.transient import dc_operating_point, simulate


class TestCircuitConstruction:
    def test_ground_always_present(self):
        assert GROUND in Circuit().nodes

    def test_nodes_registered_by_elements(self):
        ckt = Circuit()
        ckt.add_resistor("a", "b", 1.0)
        assert set(ckt.nodes) >= {"a", "b"}

    def test_unknown_nodes_exclude_sources(self):
        ckt = Circuit()
        ckt.add_vdd(0.8)
        ckt.add_resistor("vdd", "x", 1.0)
        assert ckt.unknown_nodes() == ["x"]

    def test_negative_resistance_rejected(self):
        with pytest.raises(SimulationError):
            Circuit().add_resistor("a", "b", -1.0)

    def test_negative_capacitance_rejected(self):
        with pytest.raises(SimulationError):
            Circuit().add_capacitor("a", "b", -1.0)

    def test_empty_node_name_rejected(self):
        with pytest.raises(SimulationError):
            Circuit().node("")

    def test_repr_mentions_counts(self):
        ckt = Circuit("x")
        ckt.add_resistor("a", "b", 1.0)
        assert "R=1" in repr(ckt)


class TestDcOperatingPoint:
    def test_resistive_divider(self):
        ckt = Circuit()
        ckt.add_vdd(1.0)
        ckt.add_resistor("vdd", "mid", 1.0)
        ckt.add_resistor("mid", GROUND, 1.0)
        op = dc_operating_point(ckt)
        assert op["mid"] == pytest.approx(0.5, abs=1e-6)

    def test_inverter_static_levels(self):
        ckt = Circuit()
        vdd = ckt.add_vdd(0.8)
        add_inverter(ckt, "u1", "in", "out", vdd)
        ckt.add_source("in", Constant(0.0))
        op = dc_operating_point(ckt)
        assert op["out"] == pytest.approx(0.8, abs=0.01)

    def test_inverter_static_low(self):
        ckt = Circuit()
        vdd = ckt.add_vdd(0.8)
        add_inverter(ckt, "u1", "in", "out", vdd)
        ckt.add_source("in", Constant(0.8))
        op = dc_operating_point(ckt)
        assert op["out"] == pytest.approx(0.0, abs=0.01)


class TestTransient:
    def test_rc_charging_curve(self):
        """An RC step response must match the analytic exponential."""
        ckt = Circuit()
        ckt.add_source("in", Ramp(t_start=0.0, duration=0.1, v0=0.0, v1=1.0))
        ckt.add_resistor("in", "out", 1.0)  # 1 kohm
        ckt.add_capacitor("out", GROUND, 100.0)  # 100 fF -> tau = 100 ps
        res = simulate(ckt, t_stop=500.0, dt=0.5, t_start=-10.0)
        idx = np.searchsorted(res.times, 100.0)
        v_at_tau = res.wave("out")[idx]
        # At t = tau the response is 1 - 1/e = 0.632 (cap slightly larger
        # due to the solver's MIN_NODE_CAP; tolerance covers it).
        assert v_at_tau == pytest.approx(0.632, abs=0.01)

    def test_inverter_switches(self):
        ckt = Circuit()
        vdd = ckt.add_vdd(0.8)
        add_inverter(ckt, "u1", "in", "out", vdd)
        ckt.add_capacitor("out", GROUND, 5.0)
        ckt.add_source("in", Ramp(20.0, 30.0, 0.0, 0.8))
        res = simulate(ckt, t_stop=200.0, dt=0.5, t_start=-50.0)
        assert res.wave("out")[0] == pytest.approx(0.8, abs=0.02)
        assert res.final("out") == pytest.approx(0.0, abs=0.02)

    def test_nand_truth_table_endpoint(self):
        ckt = Circuit()
        vdd = ckt.add_vdd(0.8)
        add_nand(ckt, "u1", ["a", "b"], "out", vdd)
        ckt.add_source("a", Constant(0.8))
        ckt.add_source("b", Ramp(20.0, 30.0, 0.0, 0.8))
        res = simulate(ckt, t_stop=200.0, dt=0.5, t_start=-20.0)
        assert res.wave("out")[0] == pytest.approx(0.8, abs=0.02)  # NAND(1,0)=1
        assert res.final("out") == pytest.approx(0.0, abs=0.02)  # NAND(1,1)=0

    def test_nor_truth_table_endpoint(self):
        ckt = Circuit()
        vdd = ckt.add_vdd(0.8)
        add_nor(ckt, "u1", ["a", "b"], "out", vdd)
        ckt.add_source("a", Constant(0.0))
        ckt.add_source("b", Ramp(20.0, 30.0, 0.8, 0.0))
        res = simulate(ckt, t_stop=250.0, dt=0.5, t_start=-20.0)
        assert res.wave("out")[0] == pytest.approx(0.0, abs=0.02)  # NOR(0,1)=0
        assert res.final("out") == pytest.approx(0.8, abs=0.02)  # NOR(0,0)=1

    def test_record_subset(self):
        ckt = Circuit()
        vdd = ckt.add_vdd(0.8)
        add_inverter(ckt, "u1", "in", "out", vdd)
        ckt.add_source("in", Constant(0.0))
        res = simulate(ckt, t_stop=10.0, dt=1.0, record=["out"])
        assert list(res.voltages) == ["out"]
        with pytest.raises(SimulationError):
            res.wave("in")

    def test_bad_time_window_rejected(self):
        ckt = Circuit()
        ckt.add_vdd(0.8)
        with pytest.raises(SimulationError):
            simulate(ckt, t_stop=0.0, t_start=10.0)

    def test_bad_dt_rejected(self):
        ckt = Circuit()
        ckt.add_vdd(0.8)
        with pytest.raises(SimulationError):
            simulate(ckt, t_stop=10.0, dt=0.0)

    def test_coupling_capacitor_injects_glitch(self):
        """An aggressor ramp couples onto a floating-ish victim node."""
        ckt = Circuit()
        ckt.add_source("aggr", Ramp(10.0, 20.0, 0.0, 0.8))
        ckt.add_resistor("victim", GROUND, 10.0)
        ckt.add_capacitor("victim", GROUND, 2.0)
        ckt.add_capacitor("aggr", "victim", 2.0)
        res = simulate(ckt, t_stop=400.0, dt=0.25, t_start=-10.0)
        peak = float(np.max(res.wave("victim")))
        assert peak > 0.05  # a visible coupled bump
        assert res.final("victim") == pytest.approx(0.0, abs=0.01)
