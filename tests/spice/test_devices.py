"""Unit tests for the MOSFET device model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spice.devices import (
    NMOS_16NM,
    PMOS_16NM,
    Transistor,
    vt_flavor_params,
)


def nmos_fet(**kwargs):
    return Transistor(drain="d", gate="g", source="s", params=NMOS_16NM, **kwargs)


def pmos_fet(**kwargs):
    return Transistor(drain="d", gate="g", source="s", params=PMOS_16NM, **kwargs)


class TestMosParams:
    def test_vt_decreases_with_temperature(self):
        assert NMOS_16NM.vt_at(125.0) < NMOS_16NM.vt_at(25.0)
        assert NMOS_16NM.vt_at(-30.0) > NMOS_16NM.vt_at(25.0)

    def test_vt_at_reference_is_vt0(self):
        assert NMOS_16NM.vt_at(25.0) == pytest.approx(NMOS_16NM.vt0)

    def test_vt_shift_adds(self):
        assert NMOS_16NM.vt_at(25.0, vt_shift=0.05) == pytest.approx(
            NMOS_16NM.vt0 + 0.05
        )

    def test_k_degrades_with_temperature(self):
        assert NMOS_16NM.k_at(125.0) < NMOS_16NM.k_at(25.0)
        assert NMOS_16NM.k_at(-30.0) > NMOS_16NM.k_at(25.0)

    def test_k_scale_multiplies(self):
        assert NMOS_16NM.k_at(25.0, k_scale=1.2) == pytest.approx(
            1.2 * NMOS_16NM.k_at(25.0)
        )

    def test_phi_t_at_room_temperature(self):
        assert NMOS_16NM.phi_t_at(26.85) == pytest.approx(0.02585, rel=1e-6)


class TestVtFlavors:
    def test_flavor_ordering(self):
        vts = [vt_flavor_params(NMOS_16NM, f).vt0
               for f in ("ulvt", "lvt", "svt", "hvt", "uhvt")]
        assert vts == sorted(vts)

    def test_svt_is_base(self):
        assert vt_flavor_params(NMOS_16NM, "svt").vt0 == NMOS_16NM.vt0

    def test_unknown_flavor_raises(self):
        with pytest.raises(ValueError, match="unknown Vt flavor"):
            vt_flavor_params(NMOS_16NM, "xvt")

    def test_flavor_case_insensitive(self):
        assert vt_flavor_params(NMOS_16NM, "LVT").vt0 == pytest.approx(
            NMOS_16NM.vt0 - 0.06
        )


class TestNmosCurrent:
    def test_off_device_has_negligible_current(self):
        fet = nmos_fet()
        i = fet.current(v_d=0.8, v_g=0.0, v_s=0.0)
        assert abs(i) < 1e-4  # well under a microamp-scale on-current

    def test_on_device_conducts(self):
        fet = nmos_fet()
        i = fet.current(v_d=0.8, v_g=0.8, v_s=0.0)
        assert i > 0.05  # tens of microamps to fraction of mA

    def test_current_scales_with_width(self):
        i1 = nmos_fet(width=1.0).current(0.8, 0.8, 0.0)
        i2 = nmos_fet(width=2.0).current(0.8, 0.8, 0.0)
        assert i2 == pytest.approx(2.0 * i1)

    def test_zero_vds_gives_zero_current(self):
        assert nmos_fet().current(0.0, 0.8, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_swap(self):
        """Swapping drain/source voltages negates the current."""
        fet = nmos_fet()
        i_fwd = fet.current(v_d=0.4, v_g=0.8, v_s=0.0)
        i_rev = fet.current(v_d=0.0, v_g=0.8, v_s=0.4)
        assert i_rev == pytest.approx(-i_fwd, rel=1e-9)

    def test_monotone_in_vgs(self):
        fet = nmos_fet()
        currents = [fet.current(0.8, vg, 0.0) for vg in (0.2, 0.4, 0.6, 0.8)]
        assert currents == sorted(currents)

    def test_monotone_in_vds(self):
        fet = nmos_fet()
        currents = [fet.current(vd, 0.8, 0.0) for vd in (0.05, 0.2, 0.5, 0.8)]
        assert currents == sorted(currents)

    def test_vt_shift_reduces_current(self):
        i_nom = nmos_fet().current(0.8, 0.8, 0.0)
        i_aged = nmos_fet(vt_shift=0.05).current(0.8, 0.8, 0.0)
        assert i_aged < i_nom


class TestPmosCurrent:
    def test_off_device(self):
        fet = pmos_fet()
        # Source at VDD, gate high -> off.
        i = fet.current(v_d=0.0, v_g=0.8, v_s=0.8)
        assert abs(i) < 1e-4

    def test_on_device_current_sign(self):
        fet = pmos_fet()
        # Gate low, source at VDD, drain low: current flows source->drain,
        # i.e. drain-to-source current is negative.
        i = fet.current(v_d=0.0, v_g=0.0, v_s=0.8)
        assert i < -0.02

    def test_pmos_weaker_than_nmos(self):
        i_n = nmos_fet().current(0.8, 0.8, 0.0)
        i_p = pmos_fet().current(0.0, 0.0, 0.8)
        assert abs(i_p) < abs(i_n)


class TestDerivatives:
    @given(
        vd=st.floats(0.0, 1.2),
        vg=st.floats(0.0, 1.2),
        vs=st.floats(0.0, 1.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_analytic_derivatives_match_finite_differences(self, vd, vg, vs):
        fet = nmos_fet()
        eps = 1e-6
        i0, did, dig, dis = fet.current_and_derivs(vd, vg, vs)
        fd_d = (fet.current(vd + eps, vg, vs) - fet.current(vd - eps, vg, vs)) / (2 * eps)
        fd_g = (fet.current(vd, vg + eps, vs) - fet.current(vd, vg - eps, vs)) / (2 * eps)
        fd_s = (fet.current(vd, vg, vs + eps) - fet.current(vd, vg, vs - eps)) / (2 * eps)
        tol = 1e-4 + 0.02 * max(abs(fd_d), abs(fd_g), abs(fd_s))
        assert abs(did - fd_d) < tol
        assert abs(dig - fd_g) < tol
        assert abs(dis - fd_s) < tol

    @given(
        vd=st.floats(0.0, 1.2),
        vg=st.floats(0.0, 1.2),
        vs=st.floats(0.0, 1.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_pmos_derivatives_match_finite_differences(self, vd, vg, vs):
        fet = pmos_fet()
        eps = 1e-6
        i0, did, dig, dis = fet.current_and_derivs(vd, vg, vs)
        fd_d = (fet.current(vd + eps, vg, vs) - fet.current(vd - eps, vg, vs)) / (2 * eps)
        fd_g = (fet.current(vd, vg + eps, vs) - fet.current(vd, vg - eps, vs)) / (2 * eps)
        fd_s = (fet.current(vd, vg, vs + eps) - fet.current(vd, vg, vs - eps)) / (2 * eps)
        tol = 1e-4 + 0.02 * max(abs(fd_d), abs(fd_g), abs(fd_s))
        assert abs(did - fd_d) < tol
        assert abs(dig - fd_g) < tol
        assert abs(dis - fd_s) < tol


class TestTemperatureInversionAtDeviceLevel:
    def test_low_overdrive_current_higher_when_hot(self):
        """At barely-on gate voltage the Vt drop wins: hot is stronger."""
        fet_params = NMOS_16NM
        vg = fet_params.vt0 + 0.05
        cold = Transistor("d", "g", "s", fet_params).current(0.8, vg, 0.0)
        hot = Transistor("d", "g", "s", fet_params)
        i_cold = cold
        i_hot = hot.current(0.8, vg, 0.0)  # same call, different temp below

        i_cold = Transistor("d", "g", "s", fet_params).current(0.8, vg, 0.0, temp_c=-30.0)
        i_hot = Transistor("d", "g", "s", fet_params).current(0.8, vg, 0.0, temp_c=125.0)
        assert i_hot > i_cold

    def test_high_overdrive_current_lower_when_hot(self):
        """At strong overdrive mobility degradation wins: hot is weaker."""
        fet_params = NMOS_16NM
        vg = 1.1
        i_cold = Transistor("d", "g", "s", fet_params).current(1.1, vg, 0.0, temp_c=-30.0)
        i_hot = Transistor("d", "g", "s", fet_params).current(1.1, vg, 0.0, temp_c=125.0)
        assert i_hot < i_cold


class TestCapacitances:
    def test_gate_cap_scales_with_width(self):
        assert nmos_fet(width=3.0).gate_capacitance() == pytest.approx(
            3.0 * nmos_fet(width=1.0).gate_capacitance()
        )

    def test_junction_cap_positive(self):
        assert nmos_fet().junction_capacitance() > 0.0
