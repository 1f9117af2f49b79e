"""Cross-cutting property-based tests (hypothesis) for DESIGN.md's
invariant list — the ones not already covered inside module suites."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.aging.bti import BtiModel
from repro.liberty import make_library
from repro.netlist.generators import random_logic
from repro.sta import STA, Constraints
from repro.sta.algebra import CanonicalAlgebra, CanonicalForm, VariationModel
from repro.sta.pba import gba_vs_pba
from repro.beol.corners import conventional_corners, tightened_corner
from repro.beol.stack import default_stack
from repro.core.margins import MarginStackup
from repro.cts.useful_skew import SkewStage, schedule_useful_skew
from repro.flops.model import default_flop_model
from repro.flops.recovery import Stage, recover_margin


_PROPERTY_LIB = None


def _property_lib():
    """Library shared across hypothesis examples (building it is the
    expensive part, and it is immutable)."""
    global _PROPERTY_LIB
    if _PROPERTY_LIB is None:
        _PROPERTY_LIB = make_library()
    return _PROPERTY_LIB


def _random_sta(seed: int, n_gates: int, period: float) -> STA:
    design = random_logic(n_gates=n_gates,
                          n_levels=max(3, n_gates // 15),
                          seed=seed)
    constraints = Constraints.single_clock(period)
    constraints.input_delays = {
        p: 60.0 for p in design.input_ports() if p != "clk"
    }
    sta = STA(design, _property_lib(), constraints)
    sta.report = sta.run()
    return sta


class TestStaInvariantProperties:
    """STA invariants on randomly generated small DAGs."""

    @given(seed=st.integers(0, 10_000), n_gates=st.integers(30, 90))
    @settings(max_examples=8, deadline=None)
    def test_pba_never_worse_than_gba(self, seed, n_gates):
        """PBA applies path-specific slews and CPPR credit on top of the
        GBA bound, so per-endpoint PBA slack >= GBA slack, always."""
        sta = _random_sta(seed, n_gates, period=450.0)
        assume(sta.report.endpoints("setup"))
        for row in gba_vs_pba(sta, sta.report, n_endpoints=4, max_paths=16):
            assert row.pba_slack >= row.gba_slack - 1e-9
            assert row.pessimism_recovered >= -1e-9

    @given(
        seed=st.integers(0, 10_000),
        n_gates=st.integers(30, 90),
        period=st.floats(350.0, 650.0),
        tighten=st.floats(10.0, 200.0),
    )
    @settings(max_examples=8, deadline=None)
    def test_worst_slack_monotone_in_clock_period(self, seed, n_gates,
                                                  period, tighten):
        """Tightening the clock period can only hurt setup: every
        endpoint's slack (and hence WNS/TNS) shifts down by exactly the
        period delta; hold checks are same-edge and unaffected."""
        sta = _random_sta(seed, n_gates, period=period)
        assume(sta.report.endpoints("setup"))
        tight = STA(sta.design, _property_lib(),
                    sta.constraints.with_period(period - tighten))
        tight_report = tight.run()

        assert tight_report.wns("setup") <= \
            sta.report.wns("setup") - tighten + 1e-6
        assert tight_report.tns("setup") <= sta.report.tns("setup") + 1e-9
        loose_slacks = {e.endpoint: e.slack
                        for e in sta.report.endpoints("setup")}
        for e in tight_report.endpoints("setup"):
            assert e.slack == pytest.approx(
                loose_slacks[e.endpoint] - tighten, abs=1e-6
            )
        assert tight_report.wns("hold") == \
            pytest.approx(sta.report.wns("hold"), abs=1e-6)


class TestUsefulSkewProperties:
    @given(
        slacks=st.lists(
            st.tuples(st.floats(-80.0, 80.0), st.floats(5.0, 200.0)),
            min_size=2, max_size=6,
        ),
        max_adjust=st.floats(5.0, 60.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_worse_and_hold_safe(self, slacks, max_adjust):
        """The LP never degrades the worst setup slack, keeps offsets in
        bounds, and never eats more hold slack than a stage has."""
        stages = [
            SkewStage(f"f{i}", f"f{(i + 1) % len(slacks)}", setup, hold)
            for i, (setup, hold) in enumerate(slacks)
        ]
        result = schedule_useful_skew(stages, max_adjust=max_adjust)
        assert result.predicted_wns >= result.baseline_wns - 1e-6
        for v in result.offsets.values():
            assert -1e-9 <= v <= max_adjust + 1e-9
        for stage in stages:
            taken = result.offsets[stage.capture] - \
                result.offsets[stage.launch]
            assert taken <= stage.hold_slack + 1e-6


class TestMarginProperties:
    @given(
        components=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d", "e"]),
            st.floats(0.0, 50.0),
            min_size=1, max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_rss_never_exceeds_linear(self, components):
        stackup = MarginStackup(components)
        assert stackup.rss_total() <= stackup.linear_total() + 1e-9

    @given(factor=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_jitter_accounting_monotone(self, factor):
        base = MarginStackup()
        scaled = base.with_cycle_jitter_accounting(factor)
        assert scaled.linear_total() <= base.linear_total() + 1e-9


class TestCornerTighteningProperties:
    @given(factor=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_tightened_scales_bracketed(self, factor):
        """Every tightened multiplier lies between typical (1.0) and the
        original corner's multiplier."""
        stack = default_stack()
        cw = conventional_corners(stack)["cw"]
        tbc = tightened_corner(cw, factor)
        for layer, original in cw.scales:
            tight = tbc.layer_scales(layer)
            for attr in ("r", "c_ground", "c_coupling"):
                o = getattr(original, attr)
                t = getattr(tight, attr)
                lo, hi = sorted((1.0, o))
                assert lo - 1e-9 <= t <= hi + 1e-9


class TestBtiProperties:
    @given(
        segments=st.lists(
            st.tuples(st.floats(0.1, 4.0), st.floats(0.6, 1.0)),
            min_size=1, max_size=5,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_accumulation_bracketed_by_constant_voltage(self, segments):
        """Piecewise stress lies between all-time-at-min-V and
        all-time-at-max-V."""
        bti = BtiModel()
        total_time = sum(t for t, _ in segments)
        v_lo = min(v for _, v in segments)
        v_hi = max(v for _, v in segments)
        shift = bti.accumulate(segments)
        assert bti.delta_vt(total_time, v_lo) - 1e-12 <= shift
        assert shift <= bti.delta_vt(total_time, v_hi) + 1e-12


def _canonical_arrivals(slot: int):
    """Canonical forms with a shared die-wide coordinate (0) and a
    private one (``slot``); a Clark-residual term rides on top."""
    def build(mean, s_global, s_local, s_indep):
        coeffs = np.zeros(3)
        coeffs[0] = s_global
        coeffs[slot] = s_local
        return CanonicalForm(mean, coeffs, s_indep)

    return st.builds(
        build,
        mean=st.floats(-100.0, 100.0),
        s_global=st.floats(-10.0, 10.0),
        s_local=st.floats(0.01, 20.0),
        s_indep=st.floats(0.0, 5.0),
    )


class TestClarkMaxProperties:
    """Clark's moment-matched max of the canonical SSTA engine."""

    alg = CanonicalAlgebra(None, VariationModel(n_sources=1, n_private=2))

    @given(a=_canonical_arrivals(1), b=_canonical_arrivals(2))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, a, b):
        m1 = self.alg.max(a, b)
        m2 = self.alg.max(b, a)
        assert m1.mean == pytest.approx(m2.mean, rel=1e-6, abs=1e-6)
        assert m1.sigma() == pytest.approx(m2.sigma(), rel=1e-5, abs=1e-6)

    @given(a=_canonical_arrivals(1), b=_canonical_arrivals(2))
    @settings(max_examples=50, deadline=None)
    def test_sigma_bounded_by_inputs(self, a, b):
        m = self.alg.max(a, b)
        assert m.sigma() <= max(a.sigma(), b.sigma()) + 1e-6

    @given(a=_canonical_arrivals(1), shift=st.floats(0.0, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, a, shift):
        b = CanonicalForm(a.mean - 10.0, np.array([0.0, 0.0, 2.0]))
        m0 = self.alg.max(a, b)
        m1 = self.alg.max(a + shift, b + shift)
        assert m1.mean - m0.mean == pytest.approx(shift, abs=1e-6)


class TestRecoveryProperties:
    @given(
        delays=st.lists(st.floats(200.0, 380.0), min_size=2, max_size=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_recovery_never_worse(self, delays):
        model = default_flop_model()
        stages = [
            Stage(f"f{i}", f"f{(i + 1) % len(delays)}", d)
            for i, d in enumerate(delays)
        ]
        result = recover_margin(stages, model, period=430.0, iterations=6)
        assert result.recovered_wns >= result.baseline_wns - 1e-6
        for s in result.setup_points.values():
            assert s > model.s_wall
