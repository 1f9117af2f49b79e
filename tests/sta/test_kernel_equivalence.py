"""Oracle-equivalence harness for the vectorized multi-corner kernel.

The compiled kernel (:mod:`repro.sta.kernel`) exists to make N-corner
signoff one batched array pass instead of N object-graph walks — but it
is only usable if it is *bit-compatible* with the reference engine. This
suite is the gate: randomized designs and ECO sequences run through both
engines, and every arrival, slew, endpoint slack and slew violation must
agree within 1e-9 across the scenario families that exercise distinct
code paths — MCMM corners (different libraries, BEOL corners and
temperatures), flat/AOCV/per-instance derates, SI on and off, and CPPR
credits on shared clock trees. The tolerance is that tight on purpose:
the kernel replays the reference visit order with the same float
grouping, so agreement should be exact, not merely close.

Two hypothesis properties pin algebraic invariants no single example
can: the batch result is independent of corner order (corner lanes are
data-parallel, so permuting them must permute — not perturb — the
reports), and vector-engine PBA can only recover pessimism relative to
GBA, never add it.
"""

import copy

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.beol.corners import conventional_corners
from repro.beol.stack import default_stack
from repro.liberty import make_library
from repro.liberty.aocv import AocvTable
from repro.liberty.stdcells import LibraryCondition
from repro.netlist.design import Design, PortDirection
from repro.netlist.generators import random_logic
from repro.netlist.transforms import downsize, swap_vt, upsize
from repro.sta import STA, Constraints
from repro.sta.cppr import endpoint_cppr_credit
from repro.sta.incremental import IncrementalTimer
from repro.sta.kernel import CornerSpec, compile_kernel, kernel_full_run
from repro.sta.pba import analyze_endpoint
from repro.sta.propagation import DIRECTIONS, Derates

TOL = 1e-9

VT_FLAVORS = ("svt", "lvt", "ulvt")


@pytest.fixture(scope="module")
def stack():
    return default_stack()


@pytest.fixture(scope="module")
def libs():
    return {
        "tt": make_library(),
        "ss": make_library(
            LibraryCondition(process="ssg", vdd=0.72, temp_c=125.0)
        ),
        "ff": make_library(
            LibraryCondition(process="ffg", vdd=0.88, temp_c=-40.0)
        ),
    }


def _corner_specs(libs, stack):
    """Four corners spanning every scenario family the kernel special-
    cases: plain typ, flat derates, AOCV + per-instance overlay + SI,
    and SI on a resistive-worst BEOL corner."""
    corners = conventional_corners(stack)
    return [
        CornerSpec(name="tt_typ", library=libs["tt"],
                   beol_corner=corners["typ"], temp_c=25.0),
        CornerSpec(name="ss_cw", library=libs["ss"],
                   beol_corner=corners["cw"], temp_c=125.0,
                   derates=Derates(data_late=1.05, clock_early=0.97)),
        CornerSpec(name="ff_cb_si", library=libs["ff"],
                   beol_corner=corners["cb"], temp_c=-40.0,
                   derates=Derates(
                       data_late=1.03,
                       aocv=AocvTable.from_reference_sigma(0.05),
                       aocv_distance=40.0,
                       instance_late={"g3": 1.08},
                   ),
                   si_enabled=True),
        CornerSpec(name="tt_rcw_si", library=libs["tt"],
                   beol_corner=corners["rcw"], temp_c=25.0,
                   si_enabled=True),
    ]


def _oracle(design, constraints, spec, stack):
    """Reference engine for one corner, on private copies (STA mutates
    the design it binds)."""
    sta = STA(
        copy.deepcopy(design), spec.library, copy.deepcopy(constraints),
        stack=stack, beol_corner=spec.beol_corner, temp_c=spec.temp_c,
        derates=spec.derates, si_enabled=spec.si_enabled,
    )
    sta.report = sta.run()
    return sta


def _make_design(seed):
    return random_logic(n_inputs=8, n_outputs=8, n_gates=150,
                        n_levels=6, seed=seed)


def _make_constraints():
    constraints = Constraints.single_clock(600.0)
    constraints.input_delays = {f"in{i}": 40.0 for i in range(8)}
    return constraints


@pytest.fixture(scope="module")
def batch(libs, stack):
    """One compiled 4-corner kernel plus its per-corner oracles."""
    design = _make_design(seed=3)
    constraints = _make_constraints()
    specs = _corner_specs(libs, stack)
    oracles = [_oracle(design, constraints, s, stack) for s in specs]
    kernel = compile_kernel(design, constraints, specs, stack=stack)
    kernel.run()
    return kernel, oracles


def assert_propagation_equal(prop, ref_sta):
    """Every (pin, direction) lane agrees with the oracle within TOL."""
    for ref in ref_sta.graph.topo_order:
        for direction in DIRECTIONS:
            assert prop.has(ref, direction) == \
                ref_sta.prop.has(ref, direction), (ref, direction)
            if not prop.has(ref, direction):
                continue
            got = prop.at(ref, direction)
            want = ref_sta.prop.at(ref, direction)
            assert got.late == pytest.approx(want.late, abs=TOL)
            assert got.early == pytest.approx(want.early, abs=TOL)
            assert got.slew_late == pytest.approx(want.slew_late, abs=TOL)
            assert got.slew_early == pytest.approx(want.slew_early, abs=TOL)


def assert_report_equal(got, want):
    for mode in ("setup", "hold"):
        assert got.wns(mode) == pytest.approx(want.wns(mode), abs=TOL)
        assert got.tns(mode) == pytest.approx(want.tns(mode), abs=TOL)
        ref_eps = {e.endpoint: e for e in want.endpoints(mode)}
        got_eps = {e.endpoint: e for e in got.endpoints(mode)}
        assert set(got_eps) == set(ref_eps)
        for endpoint, ref_ep in ref_eps.items():
            got_ep = got_eps[endpoint]
            assert got_ep.slack == pytest.approx(ref_ep.slack, abs=TOL)
            assert got_ep.arrival == pytest.approx(ref_ep.arrival, abs=TOL)
            assert got_ep.required == pytest.approx(ref_ep.required, abs=TOL)
            assert got_ep.data_direction == ref_ep.data_direction
            assert got_ep.startpoint == ref_ep.startpoint
    ref_slews = {v.ref: (v.slew, v.limit) for v in want.slew_violations}
    got_slews = {v.ref: (v.slew, v.limit) for v in got.slew_violations}
    assert set(got_slews) == set(ref_slews)
    for ref, (slew, limit) in ref_slews.items():
        assert got_slews[ref][0] == pytest.approx(slew, abs=TOL)
        assert got_slews[ref][1] == pytest.approx(limit, abs=TOL)


# ---------------------------------------------------------------------- #
# MCMM corners, derates, SI on/off


class TestMcmmEquivalence:
    def test_arrivals_and_slews_match_every_corner(self, batch):
        kernel, oracles = batch
        for ci, ref_sta in enumerate(oracles):
            assert_propagation_equal(kernel.materialize_prop(ci), ref_sta)

    def test_reports_match_every_corner(self, batch):
        kernel, oracles = batch
        for ci, ref_sta in enumerate(oracles):
            assert_report_equal(kernel.report(ci), ref_sta.report)

    def test_si_deltas_match(self, batch):
        kernel, oracles = batch
        for ci, ref_sta in enumerate(oracles):
            got = kernel.si_delta_for(ci)
            if not ref_sta.si_enabled:
                assert got is None
                continue
            assert set(got) == set(ref_sta.si_delta)
            for net, delta in ref_sta.si_delta.items():
                assert got[net] == pytest.approx(delta, abs=TOL)

    @pytest.mark.parametrize("seed", [5, 9])
    def test_randomized_designs(self, libs, stack, seed):
        design = random_logic(n_inputs=6, n_outputs=6, n_gates=90,
                              n_levels=5, seed=seed)
        constraints = Constraints.single_clock(520.0)
        specs = _corner_specs(libs, stack)
        oracles = [_oracle(design, constraints, s, stack) for s in specs]
        kernel = compile_kernel(design, constraints, specs, stack=stack)
        kernel.run()
        for ci, ref_sta in enumerate(oracles):
            assert_propagation_equal(kernel.materialize_prop(ci), ref_sta)
            assert_report_equal(kernel.report(ci), ref_sta.report)


# ---------------------------------------------------------------------- #
# CPPR


def _shared_clock_design():
    """clk -> two shared buffers -> two flops; the common clock prefix
    gives CPPR a real (late - early) split to credit back."""
    d = Design("shared_clk")
    d.add_port("clk", PortDirection.INPUT)
    d.add_port("din", PortDirection.INPUT)
    d.add_port("dout", PortDirection.OUTPUT)
    d.add_instance("cb1", "BUF_X4_SVT", {"A": "clk", "Z": "c1"},
                   location=(0.0, 0.0))
    d.add_instance("cb2", "BUF_X4_SVT", {"A": "c1", "Z": "c2"},
                   location=(5.0, 0.0))
    d.add_instance("ffa", "DFF_X1_SVT",
                   {"D": "din", "CK": "c2", "Q": "q1"}, location=(10.0, 0.0))
    d.add_instance("u1", "INV_X1_SVT", {"A": "q1", "ZN": "n1"},
                   location=(15.0, 0.0))
    d.add_instance("ffb", "DFF_X1_SVT",
                   {"D": "n1", "CK": "c2", "Q": "dout"}, location=(20.0, 0.0))
    return d


class TestCpprEquivalence:
    def test_cppr_credits_match_reference(self, libs, stack):
        design = _shared_clock_design()
        constraints = Constraints.single_clock(300.0)
        corners = conventional_corners(stack)
        # Clock derate split makes the shared prefix's late != early,
        # so the credit is non-degenerate.
        spec = CornerSpec(
            name="tt_ocv", library=libs["tt"], beol_corner=corners["typ"],
            temp_c=25.0,
            derates=Derates(clock_late=1.08, clock_early=0.92),
        )
        ref_sta = _oracle(design, constraints, spec, stack)
        kernel = compile_kernel(design, constraints, [spec], stack=stack)
        kernel.run()
        view = kernel.view(0)
        credits = []
        for got_ep, ref_ep in zip(kernel.report(0).endpoints("setup"),
                                  ref_sta.report.endpoints("setup")):
            got = endpoint_cppr_credit(view, got_ep)
            want = endpoint_cppr_credit(ref_sta, ref_ep)
            assert got == pytest.approx(want, abs=TOL)
            credits.append(want)
        assert any(c > 0.0 for c in credits), \
            "fixture should exercise a non-zero CPPR credit"


# ---------------------------------------------------------------------- #
# randomized ECO sequences through both engines


class TestEcoEquivalence:
    # No shrink phase, as in test_incremental_equivalence: a shrink step
    # rebuilds the design, so a failure would take minutes to report.
    @settings(max_examples=4, deadline=None, derandomize=True,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(data=st.data())
    def test_vector_timer_tracks_reference_through_ecos(self, libs, stack,
                                                        data):
        seed = data.draw(st.integers(min_value=1, max_value=3),
                         label="seed")
        lib = libs["tt"]
        design = random_logic(n_inputs=6, n_outputs=6, n_gates=90,
                              n_levels=5, seed=seed)
        constraints = Constraints.single_clock(520.0)
        sta = STA(design, lib, constraints, stack=stack)
        report, kernel = kernel_full_run(sta)
        sta.report = report
        timer = IncrementalTimer(sta, engine="vector")
        candidates = [
            inst.name for inst in design.combinational_instances(lib)
        ]
        n_steps = data.draw(st.integers(min_value=1, max_value=3),
                            label="steps")
        for _ in range(n_steps):
            picks = data.draw(
                st.lists(st.sampled_from(candidates), min_size=1,
                         max_size=4, unique=True),
                label="instances",
            )
            for name in picks:
                action = data.draw(
                    st.sampled_from(["vt", "up", "down"]), label="action"
                )
                if action == "vt":
                    flavor = data.draw(st.sampled_from(VT_FLAVORS),
                                       label="flavor")
                    swap_vt(design, lib, name, flavor)
                elif action == "up":
                    upsize(design, lib, name)
                else:
                    downsize(design, lib, name)
            # The edit invalidates the compiled kernel; the cone update
            # must fall back to reference propagation and still match a
            # from-scratch reference run.
            incremental = timer.update_cells(picks)
            ref_sta = STA(copy.deepcopy(design), lib,
                          copy.deepcopy(constraints), stack=stack)
            assert_report_equal(incremental, ref_sta.run())
        # A full update recompiles the kernel and stays equivalent.
        full = timer.full_update()
        ref_sta = STA(copy.deepcopy(design), lib,
                      copy.deepcopy(constraints), stack=stack)
        assert_report_equal(full, ref_sta.run())


# ---------------------------------------------------------------------- #
# hypothesis properties


@pytest.fixture(scope="module")
def small_batch(libs, stack):
    """A small design for the per-example recompiles of the permutation
    property."""
    design = random_logic(n_inputs=5, n_outputs=5, n_gates=50,
                          n_levels=4, seed=13)
    constraints = Constraints.single_clock(480.0)
    specs = _corner_specs(libs, stack)
    kernel = compile_kernel(design, constraints, specs, stack=stack)
    kernel.run()
    return design, constraints, specs, kernel


class TestProperties:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(perm=st.permutations(list(range(4))))
    def test_batch_result_independent_of_corner_order(self, small_batch,
                                                      stack, perm):
        design, constraints, specs, base = small_batch
        permuted = compile_kernel(
            design, constraints, [specs[i] for i in perm], stack=stack
        )
        permuted.run()
        for pos, ci in enumerate(perm):
            # Corner lanes are data-parallel: permuting the batch must
            # permute the reports bit-for-bit, not perturb them.
            assert permuted.report(pos) == base.report(ci)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_vector_pba_never_worse_than_gba(self, batch, data):
        kernel, _ = batch
        ci = data.draw(st.integers(min_value=0, max_value=3), label="ci")
        view = kernel.view(ci)
        endpoints = kernel.report(ci).endpoints("setup")
        idx = data.draw(
            st.integers(min_value=0, max_value=len(endpoints) - 1),
            label="endpoint",
        )
        result = analyze_endpoint(view, endpoints[idx], max_paths=16)
        assert result.pba_slack >= result.gba_slack - TOL
        assert result.pessimism_recovered >= -TOL
