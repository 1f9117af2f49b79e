"""Tests for the analytic standard-cell factory."""

import pytest

from repro.errors import LibraryError
from repro.liberty import LibraryCondition, make_library
from repro.liberty.arcs import TimingSense, TimingType


@pytest.fixture(scope="module")
def lib():
    return make_library()


class TestFactoryContents:
    def test_cell_count(self, lib):
        # 7 comb archetypes x sizes + 4 buf + 2 dff, x 3 flavors.
        assert len(lib) == 87

    def test_all_footprints_present(self, lib):
        assert set(lib.footprints()) == {
            "inv", "buf", "nand2", "nand3", "nor2", "nor3",
            "aoi21", "oai21", "dff",
        }

    def test_flavor_variants_exist(self, lib):
        for flavor in ("LVT", "SVT", "HVT"):
            assert f"INV_X1_{flavor}" in lib.cells

    def test_dff_is_sequential(self, lib):
        assert lib.cell("DFF_X1_SVT").is_sequential
        assert not lib.cell("INV_X1_SVT").is_sequential

    def test_dff_has_clock_pin(self, lib):
        assert lib.cell("DFF_X1_SVT").clock_pin().name == "CK"

    def test_all_delay_tables_monotone(self, lib):
        for cell in lib.cells.values():
            for arc in cell.delay_arcs():
                for timing in arc.timing.values():
                    assert timing.delay.is_monotone_nondecreasing(), cell.name
                    assert timing.slew.is_monotone_nondecreasing(), cell.name

    def test_all_delay_tables_positive(self, lib):
        for cell in lib.cells.values():
            for arc in cell.delay_arcs():
                for timing in arc.timing.values():
                    assert timing.delay.min_value > 0.0
                    assert timing.slew.min_value > 0.0

    def test_lvf_tables_present_and_late_exceeds_early(self, lib):
        for cell in lib.cells.values():
            for arc in cell.delay_arcs():
                for timing in arc.timing.values():
                    assert timing.sigma_early is not None
                    assert timing.sigma_late is not None
                    assert (
                        timing.sigma_late.values >= timing.sigma_early.values
                    ).all()


class TestPhysicalTrends:
    def test_larger_cells_are_faster(self, lib):
        d1 = lib.cell("INV_X1_SVT").arcs[0].delay_and_slew("fall", 20.0, 16.0)[0]
        d4 = lib.cell("INV_X4_SVT").arcs[0].delay_and_slew("fall", 20.0, 16.0)[0]
        assert d4 < d1

    def test_lvt_faster_than_hvt(self, lib):
        d_lvt = lib.cell("INV_X1_LVT").arcs[0].delay_and_slew("fall", 20.0, 4.0)[0]
        d_hvt = lib.cell("INV_X1_HVT").arcs[0].delay_and_slew("fall", 20.0, 4.0)[0]
        assert d_lvt < d_hvt

    def test_lvt_leaks_more_than_hvt(self, lib):
        assert lib.cell("INV_X1_LVT").leakage > 10.0 * lib.cell("INV_X1_HVT").leakage

    def test_larger_cells_cost_more_area_and_leakage(self, lib):
        c1, c4 = lib.cell("INV_X1_SVT"), lib.cell("INV_X4_SVT")
        assert c4.area > c1.area
        assert c4.leakage > c1.leakage

    def test_input_cap_grows_with_size(self, lib):
        c1 = lib.cell("NAND2_X1_SVT").input_capacitance("A")
        c4 = lib.cell("NAND2_X4_SVT").input_capacitance("A")
        assert c4 == pytest.approx(4.0 * c1)

    def test_buffer_input_cap_independent_of_size(self, lib):
        c1 = lib.cell("BUF_X1_SVT").input_capacitance("A")
        c8 = lib.cell("BUF_X8_SVT").input_capacitance("A")
        assert c8 == pytest.approx(c1)

    def test_nand_second_input_slower(self, lib):
        cell = lib.cell("NAND2_X1_SVT")
        arc_a = cell.arc_between("A", "ZN")
        arc_b = cell.arc_between("B", "ZN")
        da = arc_a.delay_and_slew("fall", 20.0, 8.0)[0]
        db = arc_b.delay_and_slew("fall", 20.0, 8.0)[0]
        assert db > da


class TestConditionScaling:
    def test_low_voltage_slower(self):
        nom = make_library(LibraryCondition(vdd=0.8))
        low = make_library(LibraryCondition(vdd=0.6))
        d_nom = nom.cell("INV_X1_SVT").arcs[0].delay_and_slew("fall", 20.0, 4.0)[0]
        d_low = low.cell("INV_X1_SVT").arcs[0].delay_and_slew("fall", 20.0, 4.0)[0]
        assert d_low > 1.1 * d_nom

    def test_ss_corner_slower_than_ff(self):
        ss = make_library(LibraryCondition(process="ss"))
        ff = make_library(LibraryCondition(process="ff"))
        d_ss = ss.cell("INV_X1_SVT").arcs[0].delay_and_slew("fall", 20.0, 4.0)[0]
        d_ff = ff.cell("INV_X1_SVT").arcs[0].delay_and_slew("fall", 20.0, 4.0)[0]
        assert d_ss > d_ff

    def test_ssg_between_tt_and_ss(self):
        def inv_delay(process):
            lib = make_library(LibraryCondition(process=process))
            return lib.cell("INV_X1_SVT").arcs[0].delay_and_slew("fall", 20.0, 4.0)[0]

        assert inv_delay("tt") < inv_delay("ssg") < inv_delay("ss")

    def test_temperature_inversion_in_library(self):
        """The analytic library inherits Fig 6(b)'s temperature inversion."""

        def inv_delay(vdd, temp):
            lib = make_library(LibraryCondition(vdd=vdd, temp_c=temp))
            return lib.cell("INV_X1_SVT").arcs[0].delay_and_slew("fall", 20.0, 4.0)[0]

        # Low voltage: cold is slower.
        assert inv_delay(0.55, -30.0) > inv_delay(0.55, 125.0)
        # High voltage: hot is slower.
        assert inv_delay(1.0, 125.0) > inv_delay(1.0, -30.0)

    def test_aging_shift_slows_cells(self):
        fresh = make_library(LibraryCondition())
        aged = make_library(LibraryCondition(vt_shift_aging=0.04))
        d_fresh = fresh.cell("INV_X1_SVT").arcs[0].delay_and_slew("fall", 20.0, 4.0)[0]
        d_aged = aged.cell("INV_X1_SVT").arcs[0].delay_and_slew("fall", 20.0, 4.0)[0]
        assert d_aged > d_fresh

    def test_unknown_process_rejected(self):
        with pytest.raises(LibraryError):
            make_library(LibraryCondition(process="zz"))

    def test_label_encodes_condition(self):
        label = LibraryCondition(vdd=0.72, temp_c=-30, process="ssg").label()
        assert "ssg" in label and "720mv" in label and "m30c" in label

    def test_hvt_sigma_larger_than_lvt(self, ):
        """Lower overdrive (HVT) means larger relative variation — the
        paper's 'variation hotspot' point (footnote 10/12)."""
        from repro.liberty.aocv import pocv_sigma

        lib = make_library()
        assert pocv_sigma(lib.cell("INV_X1_HVT")) > pocv_sigma(
            lib.cell("INV_X1_LVT")
        )


class TestDffConstraints:
    def test_setup_positive(self, lib):
        dff = lib.cell("DFF_X1_SVT")
        arc = dff.arc_between("CK", "D", TimingType.SETUP_RISING)
        assert arc.constraint_value("rise", 10.0, 10.0) > 0.0

    def test_setup_grows_with_data_slew(self, lib):
        dff = lib.cell("DFF_X1_SVT")
        arc = dff.arc_between("CK", "D", TimingType.SETUP_RISING)
        assert arc.constraint_value("rise", 80.0, 10.0) > arc.constraint_value(
            "rise", 5.0, 10.0
        )

    def test_hold_smaller_than_setup(self, lib):
        dff = lib.cell("DFF_X1_SVT")
        setup = dff.arc_between("CK", "D", TimingType.SETUP_RISING)
        hold = dff.arc_between("CK", "D", TimingType.HOLD_RISING)
        assert hold.constraint_value("rise", 10.0, 10.0) < setup.constraint_value(
            "rise", 10.0, 10.0
        )

    def test_ck_to_q_arc_non_unate(self, lib):
        arc = lib.cell("DFF_X1_SVT").arc_between("CK", "Q")
        assert arc.sense is TimingSense.NON_UNATE
        assert arc.timing_type is TimingType.RISING_EDGE

    def test_slow_corner_has_larger_setup(self):
        tt = make_library(LibraryCondition(process="tt"))
        ss = make_library(LibraryCondition(process="ss", vdd=0.72, temp_c=125.0))
        s_tt = tt.cell("DFF_X1_SVT").arc_between(
            "CK", "D", TimingType.SETUP_RISING
        ).constraint_value("rise", 10.0, 10.0)
        s_ss = ss.cell("DFF_X1_SVT").arc_between(
            "CK", "D", TimingType.SETUP_RISING
        ).constraint_value("rise", 10.0, 10.0)
        assert s_ss > s_tt
