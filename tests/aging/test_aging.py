"""Tests for BTI, AVS and the aging-signoff loop."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aging.avs import AvsController
from repro.aging.bti import BtiModel
from repro.aging.signoff import (
    greedy_upsize_closure,
    simulate_lifetime,
    sweep_aging_corners,
)
from repro.errors import ReproError, SignoffError
from repro.liberty import make_library
from repro.netlist.generators import random_logic, tiny_design
from repro.sta import Constraints


@pytest.fixture(scope="module")
def bti():
    return BtiModel()


class TestBtiModel:
    def test_zero_time_zero_shift(self, bti):
        assert bti.delta_vt(0.0, 0.8) == 0.0

    @given(
        t1=st.floats(0.1, 10.0),
        t2=st.floats(0.1, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_time(self, bti, t1, t2):
        lo, hi = sorted((t1, t2))
        assert bti.delta_vt(lo, 0.8) <= bti.delta_vt(hi, 0.8) + 1e-15

    @given(
        v1=st.floats(0.5, 1.1),
        v2=st.floats(0.5, 1.1),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_voltage(self, bti, v1, v2):
        lo, hi = sorted((v1, v2))
        assert bti.delta_vt(5.0, lo) <= bti.delta_vt(5.0, hi) + 1e-15

    def test_monotone_in_temperature(self, bti):
        assert bti.delta_vt(5.0, 0.8, temp_c=125.0) > \
            bti.delta_vt(5.0, 0.8, temp_c=25.0)

    def test_ac_less_than_dc(self, bti):
        assert bti.delta_vt(5.0, 0.8, dc_stress=False) < \
            bti.delta_vt(5.0, 0.8, dc_stress=True)

    def test_ten_year_shift_in_expected_regime(self, bti):
        shift_mv = bti.delta_vt(10.0, 0.8, temp_c=105.0) * 1000.0
        assert 20.0 < shift_mv < 70.0

    def test_stress_equivalent_round_trip(self, bti):
        shift = bti.delta_vt(4.0, 0.85)
        t_eq = bti.stress_equivalent_years(shift, 0.85)
        assert t_eq == pytest.approx(4.0, rel=1e-6)

    def test_accumulate_matches_constant_voltage(self, bti):
        direct = bti.delta_vt(6.0, 0.8)
        segmented = bti.accumulate([(2.0, 0.8), (2.0, 0.8), (2.0, 0.8)])
        assert segmented == pytest.approx(direct, rel=1e-9)

    def test_accumulate_higher_voltage_ages_faster(self, bti):
        low = bti.accumulate([(5.0, 0.75), (5.0, 0.75)])
        high = bti.accumulate([(5.0, 0.75), (5.0, 0.95)])
        assert high > low

    def test_bad_parameters_rejected(self):
        with pytest.raises(ReproError):
            BtiModel(time_exponent=1.5)
        with pytest.raises(ReproError):
            BtiModel(prefactor=-1.0)

    def test_negative_time_rejected(self, bti):
        with pytest.raises(ReproError):
            bti.delta_vt(-1.0, 0.8)


class TestAvs:
    @pytest.fixture(scope="class")
    def controller(self):
        d = random_logic(n_gates=60, n_levels=5, seed=7)
        return AvsController(
            design=d, constraints=Constraints.single_clock(450.0)
        )

    def test_aged_silicon_needs_higher_voltage(self, controller):
        fresh = controller.voltage_for(0.0)
        aged = controller.voltage_for(0.04)
        assert aged > fresh

    def test_voltage_within_rails(self, controller):
        v = controller.voltage_for(0.02)
        assert controller.v_min <= v <= controller.v_max

    def test_found_voltage_meets_timing(self, controller):
        v = controller.voltage_for(0.03)
        assert controller.wns_at(v, 0.03) >= 0.0

    def test_impossible_target_raises(self):
        d = random_logic(n_gates=60, n_levels=5, seed=7)
        controller = AvsController(
            design=d, constraints=Constraints.single_clock(80.0)
        )
        with pytest.raises(SignoffError):
            controller.voltage_for(0.0)


class TestLifetime:
    @pytest.fixture(scope="class")
    def life(self):
        d = random_logic(n_gates=60, n_levels=5, seed=7)
        return simulate_lifetime(
            d, Constraints.single_clock(450.0), years=10.0, steps=3
        )

    def test_voltage_monotone_nondecreasing(self, life):
        assert life.voltages == sorted(life.voltages)

    def test_shift_monotone(self, life):
        assert life.delta_vts == sorted(life.delta_vts)

    def test_average_power_positive(self, life):
        assert life.average_power > 0.0

    def test_chicken_egg_visible(self, life):
        """The loop must actually move: voltage rises measurably and the
        accumulated shift lands in the tens of mV."""
        assert life.final_voltage > life.voltages[0] + 0.01
        assert life.delta_vts[-1] > 0.02


class TestAgingCornerSweep:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return sweep_aging_corners(
            design_factory=lambda: random_logic(n_gates=60, n_levels=5,
                                                seed=7),
            constraints=Constraints.single_clock(420.0),
            corners_mv=(0.0, 30.0, 60.0),
            steps=2,
        )

    def test_all_corners_closed(self, outcomes):
        assert all(o.closed for o in outcomes)

    def test_area_grows_with_assumed_aging(self, outcomes):
        """Fig 9's x-axis: pessimistic aging corners cost area."""
        areas = [o.area for o in outcomes]
        assert areas[-1] > areas[0]

    def test_power_area_tradeoff_exists(self, outcomes):
        """Fig 9's shape: the corner with the least area must not also
        have the least lifetime power (otherwise there is no tradeoff)."""
        by_area = min(outcomes, key=lambda o: o.area)
        by_power = min(outcomes, key=lambda o: o.average_power)
        assert by_area.assumed_shift_mv != by_power.assumed_shift_mv

    def test_greedy_closure_on_tiny(self):
        lib = make_library()
        d = tiny_design()
        assert greedy_upsize_closure(d, lib, Constraints.single_clock(400.0))
