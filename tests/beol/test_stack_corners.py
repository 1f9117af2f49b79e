"""Tests for the BEOL stack and corner algebra."""

import pytest

from repro.beol.corners import (
    conventional_corners,
    corner_explosion_count,
    dominant_corner_for_path,
    per_layer_corner_space,
    tightened_corner,
)
from repro.beol.stack import MetalLayer, default_stack
from repro.errors import CornerError


@pytest.fixture(scope="module")
def stack():
    return default_stack()


@pytest.fixture(scope="module")
def corners(stack):
    return conventional_corners(stack)


class TestStack:
    def test_eight_layers(self, stack):
        assert len(stack.layers) == 8

    def test_lower_layers_more_resistive(self, stack):
        assert stack.layer("M1").r_per_um > stack.layer("M6").r_per_um

    def test_lower_layers_multi_patterned(self, stack):
        assert stack.layer("M2").is_multi_patterned
        assert not stack.layer("M6").is_multi_patterned

    def test_resistance_rises_with_temperature(self, stack):
        m2 = stack.layer("M2")
        assert m2.r_at(125.0) > m2.r_at(25.0) > m2.r_at(-30.0)

    def test_missing_layer_raises(self, stack):
        with pytest.raises(CornerError):
            stack.layer("M99")

    def test_layer_for_route_by_length(self, stack):
        assert stack.layer_for_route(5.0).name == "M2"
        assert stack.layer_for_route(30.0).name == "M4"
        assert stack.layer_for_route(200.0).name == "M6"

    def test_ndr_promotes_layer(self, stack):
        normal = stack.layer_for_route(30.0)
        promoted = stack.layer_for_route(30.0, ndr=True)
        assert promoted.r_per_um < normal.r_per_um

    def test_variability_factor_ordering(self):
        single = MetalLayer("X", 1, 1, 1, patterning="single")
        sadp = MetalLayer("X", 1, 1, 1, patterning="sadp")
        saqp = MetalLayer("X", 1, 1, 1, patterning="saqp")
        assert single.variability_factor < sadp.variability_factor \
            < saqp.variability_factor


class TestConventionalCorners:
    def test_all_families_present(self, corners):
        assert set(corners) == {"typ", "cw", "cb", "ccw", "ccb", "rcw", "rcb"}

    def test_typical_is_unity(self, corners):
        s = corners["typ"].layer_scales("M2")
        assert (s.r, s.c_ground, s.c_coupling) == (1.0, 1.0, 1.0)

    def test_cw_raises_cap_lowers_r(self, corners):
        s = corners["cw"].layer_scales("M4")
        assert s.c_ground > 1.0 and s.c_coupling > 1.0 and s.r < 1.0

    def test_rcw_raises_r(self, corners):
        s = corners["rcw"].layer_scales("M4")
        assert s.r > 1.15

    def test_multi_patterned_layers_take_wider_excursions(self, corners):
        sadp = corners["cw"].layer_scales("M2")  # SADP layer
        single = corners["cw"].layer_scales("M6")
        assert sadp.c_ground - 1.0 > single.c_ground - 1.0

    def test_missing_layer_raises(self, corners):
        with pytest.raises(CornerError):
            corners["cw"].layer_scales("M99")


class TestTightenedCorners:
    def test_factor_one_is_identity(self, corners):
        tbc = tightened_corner(corners["cw"], 1.0)
        assert tbc.layer_scales("M2") == corners["cw"].layer_scales("M2")

    def test_factor_zero_is_typical(self, corners):
        tbc = tightened_corner(corners["cw"], 0.0)
        s = tbc.layer_scales("M2")
        assert s.r == pytest.approx(1.0)
        assert s.c_ground == pytest.approx(1.0)

    def test_half_tightening_between(self, corners):
        full = corners["cw"].layer_scales("M2").c_ground
        half = tightened_corner(corners["cw"], 0.5).layer_scales("M2").c_ground
        assert 1.0 < half < full

    def test_bad_factor_rejected(self, corners):
        with pytest.raises(CornerError):
            tightened_corner(corners["cw"], 1.5)

    def test_name_generated(self, corners):
        assert "tbc50" in tightened_corner(corners["cw"], 0.5).name


class TestCornerExplosion:
    def test_per_layer_space_grows_exponentially(self, stack):
        three = per_layer_corner_space(stack, families=["a", "b", "c"])
        five = per_layer_corner_space(stack, families=list("abcde"))
        n_mp = len(stack.multi_patterned_layers())
        assert three == 3 ** n_mp * 3
        assert five == 5 ** n_mp * 5

    def test_explosion_count_components(self, stack):
        counts = corner_explosion_count(
            n_modes=4, n_voltage_domains=3, stack=stack
        )
        assert counts["scenarios_homogeneous"] == 4 * 3 * 3 * 5
        assert counts["scenarios_per_layer"] > counts["scenarios_homogeneous"]

    def test_dominant_corner_rule(self):
        assert dominant_corner_for_path(0.95) == "cw"   # gate-dominated
        assert dominant_corner_for_path(0.5) == "rcw"   # wire-dominated

    def test_dominant_corner_bad_fraction(self):
        with pytest.raises(CornerError):
            dominant_corner_for_path(1.5)
