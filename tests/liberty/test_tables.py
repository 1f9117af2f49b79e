"""Tests for NLDM lookup tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LibraryError
from repro.liberty.tables import LookupTable2D


def simple_table():
    return LookupTable2D(
        index_1=[1.0, 2.0, 4.0],
        index_2=[10.0, 20.0],
        values=[[1.0, 2.0], [2.0, 4.0], [4.0, 8.0]],
    )


class TestConstruction:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(LibraryError):
            LookupTable2D([1, 2], [1, 2], [[1, 2]])

    def test_non_increasing_index_rejected(self):
        with pytest.raises(LibraryError):
            LookupTable2D([2, 1], [1, 2], [[1, 2], [3, 4]])

    def test_duplicate_index_rejected(self):
        with pytest.raises(LibraryError):
            LookupTable2D([1, 1], [1, 2], [[1, 2], [3, 4]])

    def test_too_small_grid_rejected(self):
        with pytest.raises(LibraryError):
            LookupTable2D([1], [1, 2], [[1, 2]])

    def test_from_function(self):
        t = LookupTable2D.from_function([1, 2], [3, 4], lambda a, b: a * b)
        assert t.lookup(2, 4) == pytest.approx(8.0)


class TestLookup:
    def test_exact_grid_points(self):
        t = simple_table()
        for i, x1 in enumerate(t.index_1):
            for j, x2 in enumerate(t.index_2):
                assert t.lookup(float(x1), float(x2)) == pytest.approx(
                    t.values[i, j]
                )

    def test_bilinear_midpoint(self):
        t = simple_table()
        assert t.lookup(1.5, 15.0) == pytest.approx((1 + 2 + 2 + 4) / 4)

    def test_extrapolation_below(self):
        t = simple_table()
        # Linear continuation of the first segment.
        assert t.lookup(0.0, 10.0) == pytest.approx(0.0)

    def test_extrapolation_above(self):
        t = simple_table()
        assert t.lookup(8.0, 10.0) == pytest.approx(8.0)

    @given(
        x1=st.floats(0.5, 5.0),
        x2=st.floats(8.0, 25.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_interpolant_within_bounds_inside_grid(self, x1, x2):
        t = simple_table()
        x1 = min(max(x1, 1.0), 4.0)
        x2 = min(max(x2, 10.0), 20.0)
        v = t.lookup(x1, x2)
        assert t.min_value - 1e-9 <= v <= t.max_value + 1e-9

    @given(
        x1a=st.floats(1.0, 4.0),
        x1b=st.floats(1.0, 4.0),
        x2=st.floats(10.0, 20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_table_gives_monotone_interpolant(self, x1a, x1b, x2):
        t = simple_table()
        lo, hi = sorted((x1a, x1b))
        assert t.lookup(lo, x2) <= t.lookup(hi, x2) + 1e-9


class TestTransforms:
    def test_scaled(self):
        t = simple_table().scaled(2.0)
        assert t.lookup(1.0, 10.0) == pytest.approx(2.0)

    def test_shifted(self):
        t = simple_table().shifted(1.0)
        assert t.lookup(1.0, 10.0) == pytest.approx(2.0)

    def test_combined(self):
        t = simple_table()
        s = t.combined(t, lambda a, b: a + b)
        assert s.lookup(2.0, 20.0) == pytest.approx(8.0)

    def test_combined_grid_mismatch_rejected(self):
        t = simple_table()
        other = LookupTable2D([1.0, 2.0], [10.0, 20.0], [[1, 2], [3, 4]])
        with pytest.raises(LibraryError):
            t.combined(other, lambda a, b: a + b)

    def test_monotone_check(self):
        assert simple_table().is_monotone_nondecreasing()
        t = LookupTable2D([1, 2], [1, 2], [[2, 1], [3, 4]])
        assert not t.is_monotone_nondecreasing()

    def test_same_grid(self):
        assert simple_table().same_grid(simple_table())
