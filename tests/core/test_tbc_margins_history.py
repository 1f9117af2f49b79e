"""Tests for TBC analysis, margin stackups and the history tables."""

import math

import pytest

from repro.errors import ReproError, SignoffError
from repro.liberty import make_library
from repro.netlist.generators import random_logic
from repro.sta import Constraints
from repro.core.history import (
    OLD_VS_NEW,
    care_abouts_at,
    new_at,
    node_of,
    render_old_vs_new,
    render_timeline,
)
from repro.core.margins import MarginStackup, recovery_ladder
from repro.core.tbc import (
    PathCornerStats,
    alpha_analysis,
    classify_tbc_safe,
    tbc_signoff,
)


@pytest.fixture(scope="module")
def lib():
    return make_library()


@pytest.fixture(scope="module")
def stats(lib):
    d = random_logic(n_gates=200, n_levels=8, seed=3)
    return alpha_analysis(d, lib, Constraints.single_clock(600.0),
                          n_endpoints=20)


class TestAlphaAnalysis:
    def test_deltas_positive_at_worst_corners(self, stats):
        for s in stats:
            assert s.delta_cw > 0.0
            assert s.delta_rcw > 0.0

    def test_alpha_small_means_pessimism(self, stats):
        """Homogeneous corners are pessimistic vs the statistical 3-sigma
        on these gate-dominated paths: alpha << 1 (the Fig 8 story)."""
        alphas = [s.alpha(s.dominant_corner) for s in stats]
        assert sum(alphas) / len(alphas) < 0.5

    def test_alpha_infinite_when_no_excursion(self):
        s = PathCornerStats(endpoint=None, arrival_typ=100.0, delta_cw=0.0,
                            delta_rcw=5.0, sigma3=1.0)
        assert s.alpha("cw") == math.inf

    def test_gate_dominated_paths_cw_dominant(self, stats):
        """Short-wire random logic is gate-dominated -> Cw dominates."""
        dominant = [s.dominant_corner for s in stats]
        assert dominant.count("cw") > dominant.count("rcw")

    def test_classification_partition(self, stats):
        safe, unsafe = classify_tbc_safe(stats, 0.05, 0.05)
        assert len(safe) + len(unsafe) == len(stats)

    def test_looser_thresholds_accept_more(self, stats):
        tight, _ = classify_tbc_safe(stats, 0.01, 0.01)
        loose, _ = classify_tbc_safe(stats, 0.10, 0.10)
        assert len(loose) >= len(tight)


class TestTbcSignoff:
    def test_tbc_reduces_violations(self, lib):
        """Pick a period where the Cw corner fails but typical passes; TBC
        signoff must remove some violations for safe paths."""
        d = random_logic(n_gates=200, n_levels=8, seed=3)
        result = tbc_signoff(
            d, lib, Constraints.single_clock(505.0),
            tighten_factor=0.4, a_cw=0.05, a_rcw=0.05,
        )
        assert result.violations_tbc <= result.violations_cbc
        assert result.total_paths > 0


class TestMargins:
    def test_rss_below_linear(self):
        m = MarginStackup()
        assert m.rss_total() < m.linear_total()
        assert m.pessimism() > 0.0

    def test_avs_drops_aging(self):
        m = MarginStackup()
        assert m.with_avs().components["aging_dc"] == 0.0
        assert m.with_avs().linear_total() < m.linear_total()

    def test_cycle_jitter_scaling(self):
        m = MarginStackup()
        half = m.with_cycle_jitter_accounting(0.5)
        assert half.components["pll_jitter"] == pytest.approx(
            0.5 * m.components["pll_jitter"]
        )

    def test_bad_jitter_factor_rejected(self):
        with pytest.raises(SignoffError):
            MarginStackup().with_cycle_jitter_accounting(2.0)

    def test_dynamic_ir_caps_component(self):
        m = MarginStackup().with_dynamic_ir_analysis(residual=3.0)
        assert m.components["ir_drop"] == 3.0

    def test_negative_component_rejected(self):
        with pytest.raises(SignoffError):
            MarginStackup({"jitter": -1.0})

    def test_recovery_ladder_monotone(self):
        steps = recovery_ladder(MarginStackup())
        values = [v for _, v in steps]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 0.5 * values[0]

    def test_table_renders(self):
        text = MarginStackup().table()
        assert "linear total" in text and "RSS total" in text


class TestHistory:
    def test_old_vs_new_rows(self):
        assert len(OLD_VS_NEW) >= 8
        assert any("LVF" in new for _, new in OLD_VS_NEW)

    def test_care_abouts_accumulate(self):
        older = care_abouts_at(45)
        newer = care_abouts_at(16)
        assert set(older) < set(newer)

    def test_new_at_20nm_includes_multi_patterning(self):
        assert "multi_patterning" in new_at(20)
        assert "min_implant" in new_at(20)

    def test_lvf_is_a_10nm_care_about(self):
        assert node_of("lvf") == 10
        assert "lvf" not in care_abouts_at(16)
        assert "lvf" in care_abouts_at(10)

    def test_unknown_node_rejected(self):
        with pytest.raises(ReproError):
            care_abouts_at(3)
        with pytest.raises(ReproError):
            new_at(14)

    def test_unknown_care_about_rejected(self):
        with pytest.raises(ReproError):
            node_of("quantum_tunneling")

    def test_renders(self):
        assert "OLD" in render_old_vs_new()
        assert "care-about" in render_timeline()
