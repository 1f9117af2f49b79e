"""Tests for ring-oscillator performance monitors (DDRO)."""

import random

import pytest

from repro.aging.monitors import (
    design_dependent_ro,
    evaluate_tracking,
    generic_ro,
    monitor_guided_voltage,
)
from repro.errors import SignoffError
from repro.liberty import LibraryCondition, make_library
from repro.netlist.generators import random_logic
from repro.netlist.transforms import swap_vt
from repro.sta import STA, Constraints


@pytest.fixture(scope="module")
def lib():
    return make_library()


@pytest.fixture(scope="module")
def hvt_heavy_sta(lib):
    """A design whose critical paths are HVT-heavy, so the DDRO's cell
    mix matters (HVT slows disproportionately at low voltage)."""
    d = random_logic(n_gates=150, n_levels=8, seed=5)
    d.bind(lib)
    rng = random.Random(1)
    for name in list(d.instances):
        inst = d.instances[name]
        if not lib.cell(inst.cell_name).is_sequential and rng.random() < 0.5:
            swap_vt(d, lib, name, "hvt")
    sta = STA(d, lib, Constraints.single_clock(600.0))
    sta.report = sta.run()
    return sta


class TestRingOscillator:
    def test_generic_ro_period_positive(self, lib):
        assert generic_ro().period(lib) > 0.0

    def test_frequency_inverse_of_period(self, lib):
        ro = generic_ro()
        assert ro.frequency(lib) == pytest.approx(1e3 / ro.period(lib))

    def test_more_stages_slower(self, lib):
        assert generic_ro(n_stages=21).period(lib) > \
            generic_ro(n_stages=15).period(lib)

    def test_period_slows_at_low_voltage(self, lib):
        low = make_library(LibraryCondition(vdd=0.65))
        assert generic_ro().period(low) > generic_ro().period(lib)

    def test_period_slows_with_aging(self, lib):
        aged = make_library(LibraryCondition(vt_shift_aging=0.05))
        assert generic_ro().period(aged) > generic_ro().period(lib)

    def test_hvt_ro_slower_than_lvt(self, lib):
        assert generic_ro(flavor="hvt").period(lib) > \
            generic_ro(flavor="lvt").period(lib)


class TestDdro:
    def test_ddro_copies_path_cells(self, hvt_heavy_sta):
        ddro = design_dependent_ro(hvt_heavy_sta, hvt_heavy_sta.report)
        assert ddro.stages
        flavors = {s.cell_name.rsplit("_", 1)[-1] for s in ddro.stages}
        assert "HVT" in flavors  # the critical mix is represented

    def test_ddro_respects_stage_cap(self, hvt_heavy_sta):
        ddro = design_dependent_ro(hvt_heavy_sta, hvt_heavy_sta.report,
                                   max_stages=10)
        assert len(ddro.stages) <= 10

    def test_ddro_tracks_better_than_generic(self, hvt_heavy_sta):
        """The [3] headline: the design-dependent monitor follows the
        critical paths across PVT/aging better than an inverter RO."""
        conditions = [
            LibraryCondition(vdd=0.65),
            LibraryCondition(vdd=0.72, temp_c=125.0, process="ss"),
            LibraryCondition(vdd=0.9, temp_c=-30.0, process="ff"),
            LibraryCondition(vt_shift_aging=0.04, temp_c=105.0),
        ]
        design = hvt_heavy_sta.design
        constraints = hvt_heavy_sta.constraints
        ddro = design_dependent_ro(hvt_heavy_sta, hvt_heavy_sta.report)
        ddro_track = evaluate_tracking(ddro, design, constraints, conditions)
        generic_track = evaluate_tracking(generic_ro(), design, constraints,
                                          conditions)
        assert ddro_track.mean_tracking_error < \
            0.5 * generic_track.mean_tracking_error
        assert ddro_track.max_tracking_error < \
            generic_track.max_tracking_error


class TestMonitorGuidedAvs:
    def test_aged_silicon_needs_more_voltage(self):
        ro = generic_ro()
        fresh = monitor_guided_voltage(ro, 1.15, delta_vt=0.0)
        aged = monitor_guided_voltage(ro, 1.15, delta_vt=0.05)
        assert aged > fresh

    def test_looser_target_lower_voltage(self):
        ro = generic_ro()
        tight = monitor_guided_voltage(ro, 1.05, delta_vt=0.03)
        loose = monitor_guided_voltage(ro, 1.40, delta_vt=0.03)
        assert loose <= tight

    def test_unreachable_target_raises(self):
        ro = generic_ro()
        with pytest.raises(SignoffError):
            monitor_guided_voltage(ro, 0.3, delta_vt=0.08, v_max=0.7)
