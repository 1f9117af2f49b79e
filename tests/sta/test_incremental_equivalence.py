"""Property test: incremental updates are equivalent to from-scratch STA.

The closure loop's whole premise is that a cone-limited update after a
footprint-preserving edit produces *the same answer* a fresh
:meth:`STA.run` would. This suite drives randomized Vt-swap/resize
sequences — multiple edits per step, multiple steps per run, SI on and
off — and requires WNS, TNS and every endpoint slack to agree within
1e-9 ps after every step. The tolerance is that tight on purpose: the
update re-propagates the cone with the same graph, the same topological
order and the same stored boundary arrivals, so the float operations
are identical and the agreement should be exact, not approximate.

The update re-evaluates only the report records its cone reaches and
keeps the rest, so every step is also compared in full: the rendered
report (slacks, arrivals, required times, path categories and slew
violations) must be byte-identical to a fresh run's, and every
endpoint's startpoint must match. Directed cases cover what a random
sequence may miss: a clock-tree edit with a cone of most of the design,
a flop swap that rebinds checks, an output port inside the cone, slew
violations that appear and disappear, a timer over a vector-engine
run and one over a statistical (canonical-algebra) run.
"""

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.cts.tree import synthesize_clock_tree
from repro.liberty import make_library
from repro.netlist.design import PinRef
from repro.netlist.generators import random_logic
from repro.netlist.transforms import downsize, swap_vt, upsize
from repro.sta import STA, Constraints
from repro.sta.algebra import CanonicalAlgebra
from repro.sta.incremental import IncrementalTimer
from repro.sta.kernel import kernel_full_run

VT_FLAVORS = ("svt", "lvt", "ulvt")


@pytest.fixture(scope="module")
def lib():
    return make_library()


def _constraints(max_transition=None):
    constraints = Constraints.single_clock(520.0)
    constraints.input_delays = {f"in{i}": 60.0 for i in range(32)}
    constraints.max_transition = max_transition
    return constraints


def _setup(lib, seed, si_enabled):
    design = random_logic(n_gates=220, n_levels=8, seed=seed)
    sta = STA(design, lib, _constraints(), si_enabled=si_enabled)
    sta.report = sta.run()
    return design, sta


def _apply(design, lib, name, action, flavor):
    if action == "vt":
        return swap_vt(design, lib, name, flavor)
    if action == "up":
        return upsize(design, lib, name)
    return downsize(design, lib, name)


def _assert_equivalent(incremental, reference):
    assert incremental.wns("setup") == \
        pytest.approx(reference.wns("setup"), abs=1e-9)
    assert incremental.tns("setup") == \
        pytest.approx(reference.tns("setup"), abs=1e-9)
    assert incremental.wns("hold") == \
        pytest.approx(reference.wns("hold"), abs=1e-9)
    for mode in ("setup", "hold"):
        ref = {e.endpoint: e.slack for e in reference.endpoints(mode)}
        inc = {e.endpoint: e.slack for e in incremental.endpoints(mode)}
        assert set(inc) == set(ref)
        for endpoint, slack in ref.items():
            assert inc[endpoint] == pytest.approx(slack, abs=1e-9)


def _assert_same_report(incremental, reference):
    """Byte-identical rendering and the same startpoint everywhere."""
    assert incremental.render_full() == reference.render_full()
    for mode in ("setup", "hold"):
        starts = {e.endpoint: e.startpoint
                  for e in reference.endpoints(mode)}
        assert {e.endpoint: e.startpoint
                for e in incremental.endpoints(mode)} == starts


def _fresh(sta):
    return STA(sta.design, sta.library, sta.constraints,
               si_enabled=sta.si_enabled).run()


@pytest.mark.parametrize("si_enabled", [False, True])
# No shrink phase: each shrink step builds a 220-gate design, which held
# a failing run for minutes. The same examples still run.
@settings(max_examples=6, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_random_eco_sequences_match_fresh_sta(lib, si_enabled, data):
    seed = data.draw(st.integers(min_value=1, max_value=4), label="seed")
    design, sta = _setup(lib, seed, si_enabled)
    timer = IncrementalTimer(sta)
    candidates = [
        inst.name for inst in design.combinational_instances(lib)
    ]
    n_steps = data.draw(st.integers(min_value=1, max_value=3),
                        label="steps")
    for _ in range(n_steps):
        picks = data.draw(
            st.lists(st.sampled_from(candidates), min_size=1, max_size=5,
                     unique=True),
            label="instances",
        )
        edited = []
        for name in picks:
            action = data.draw(
                st.sampled_from(("vt", "up", "down")), label="action")
            flavor = data.draw(
                st.sampled_from(VT_FLAVORS), label="flavor")
            if _apply(design, lib, name, action, flavor):
                edited.append(name)
        incremental = timer.update_cells(edited)
        reference = STA(design, lib, sta.constraints,
                        si_enabled=si_enabled).run()
        _assert_equivalent(incremental, reference)
        _assert_same_report(incremental, reference)
    assert timer.incremental_updates <= n_steps


def test_clock_tree_edits_match_fresh_sta(lib):
    """Vt swaps in a synthesized clock tree move every capture clock:
    cones span most of the design and the slew violations change."""
    design = random_logic(n_gates=220, n_levels=8, seed=3)
    cts = synthesize_clock_tree(design, lib)
    sta = STA(design, lib, _constraints(max_transition=60.0))
    sta.report = sta.run()
    timer = IncrementalTimer(sta)
    violations = [len(sta.report.slew_violations)]
    for name in (cts.leaf_buffers[0], cts.root_buffer):
        assert swap_vt(design, lib, name, "lvt")
        report = timer.update_cells([name])
        assert timer.last_cone_size > len(sta.graph.topo_order) // 2
        _assert_same_report(report, _fresh(sta))
        violations.append(len(report.slew_violations))
    assert violations[0] > 0
    assert len(set(violations)) > 1


def test_flop_swap_rebinds_its_checks(lib):
    design, sta = _setup(lib, 2, False)
    timer = IncrementalTimer(sta)
    flop = next(i.name for i in design.instances.values()
                if lib.cell(i.cell_name).is_sequential)
    assert swap_vt(design, lib, flop, "lvt") or \
        swap_vt(design, lib, flop, "hvt")
    report = timer.update_cells([flop])
    cell = lib.cell(design.instance(flop).cell_name)
    checks = [c for c in sta.graph.checks if c.instance == flop]
    assert checks
    assert all(any(c.arc is arc for arc in cell.arcs) for c in checks)
    rebound = [e for e in report.setup + report.hold
               if e.check is not None and e.check.instance == flop]
    assert rebound
    assert all(any(e.check is c for c in checks) for e in rebound)
    _assert_same_report(report, _fresh(sta))


def test_output_port_in_the_cone(lib):
    design, sta = _setup(lib, 1, False)
    timer = IncrementalTimer(sta)
    port, driver = next(
        (port, design.get_net(port).driver)
        for port in design.output_ports()
        if design.get_net(port).driver is not None
        and not design.get_net(port).driver.is_port
    )
    before = {e.endpoint: e.slack for e in sta.report.setup}
    assert upsize(design, lib, driver.instance) or \
        downsize(design, lib, driver.instance)
    report = timer.update_cells([driver.instance])
    after = {e.endpoint: e.slack for e in report.setup}
    assert after[PinRef("", port)] != before[PinRef("", port)]
    _assert_same_report(report, _fresh(sta))


def test_slew_violations_appear_and_disappear(lib):
    """Under a tight limit a downsize raises a pin over it and an
    upsize brings a violating pin back under it."""
    design = random_logic(n_gates=220, n_levels=8, seed=4)
    sta = STA(design, lib, _constraints(max_transition=60.0))
    sta.report = sta.run()
    timer = IncrementalTimer(sta)

    def violating():
        return {v.ref for v in sta.report.slew_violations}

    def near_limit(ref):
        slews = [sta.prop.at(ref, d).slew_late for d in ("rise", "fall")
                 if sta.prop.has(ref, d)]
        return 50.0 < max(slews, default=0.0) <= 60.0

    def drivers(refs):
        return sorted({design.get_net(
            design.instance(r.instance).net_of(r.pin)).driver.instance
            for r in refs if not r.is_port})

    appeared = disappeared = False
    before = violating()
    for name in drivers(violating()):
        if upsize(design, lib, name):
            _assert_same_report(timer.update_cells([name]), _fresh(sta))
            if before - violating():
                disappeared = True
                break
    before = violating()
    for name in drivers(r for r in sta.graph.topo_order
                        if not r.is_port and near_limit(r)):
        if downsize(design, lib, name):
            _assert_same_report(timer.update_cells([name]), _fresh(sta))
            if violating() - before:
                appeared = True
                break
    assert disappeared and appeared


def test_timer_over_a_vector_engine_run(lib):
    design = random_logic(n_gates=220, n_levels=8, seed=1)
    sta = STA(design, lib, _constraints())
    sta.report, _ = kernel_full_run(sta)  # raises rather than fall back
    timer = IncrementalTimer(sta, engine="vector")
    names = [i.name for i in design.combinational_instances(lib)][:40:8]
    for name in names:
        assert swap_vt(design, lib, name, "lvt") or upsize(design, lib, name)
    report = timer.update_cells(names)
    _assert_same_report(report, _fresh(sta))


def test_timer_over_a_statistical_run(lib):
    """The cone re-propagates in the STA's own algebra, so a canonical
    SSTA timer matches a fresh canonical run in mean and sigma."""
    design = random_logic(n_gates=220, n_levels=8, seed=1)
    sta = STA(design, lib, _constraints(), algebra=CanonicalAlgebra(design))
    sta.run()
    timer = IncrementalTimer(sta)
    names = [i.name for i in design.combinational_instances(lib)][:40:8]
    for name in names:
        assert swap_vt(design, lib, name, "lvt") or upsize(design, lib, name)
    report = timer.update_cells(names)
    reference = STA(design, lib, sta.constraints,
                    algebra=CanonicalAlgebra(design)).run()
    _assert_same_report(report, reference)
    for mode in ("setup", "hold"):
        sigmas = {e.endpoint: e.slack_sigma
                  for e in reference.endpoints(mode)}
        for e in report.endpoints(mode):
            assert e.slack_sigma == \
                pytest.approx(sigmas[e.endpoint], abs=1e-9)
