"""Tests for the incremental timer: correctness vs full rebuild, speed."""

import time

import pytest

from repro.errors import TimingError
from repro.liberty import make_library
from repro.liberty.arcs import TimingArc
from repro.netlist.design import PinRef
from repro.netlist.generators import aes_like, random_logic
from repro.netlist.transforms import swap_vt, upsize
from repro.sta import STA, Constraints
from repro.sta.graph import NetEdge
from repro.sta.incremental import IncrementalTimer


@pytest.fixture(scope="module")
def lib():
    return make_library()


def fresh_setup(lib, n_gates=300, seed=7):
    design = random_logic(n_gates=n_gates, n_levels=10, seed=seed)
    constraints = Constraints.single_clock(520.0)
    constraints.input_delays = {f"in{i}": 60.0 for i in range(32)}
    sta = STA(design, lib, constraints)
    sta.report = sta.run()
    return design, sta


def slack_map(report, mode="setup"):
    return {e.endpoint: e.slack for e in report.endpoints(mode)}


class TestCorrectness:
    def test_requires_prior_run(self, lib):
        design = random_logic(n_gates=60, n_levels=4, seed=2)
        sta = STA(design, lib, Constraints.single_clock(500.0))
        with pytest.raises(TimingError):
            IncrementalTimer(sta)

    @pytest.mark.parametrize("edit_count", [1, 5])
    def test_incremental_matches_full_rebuild(self, lib, edit_count):
        design, sta = fresh_setup(lib)
        timer = IncrementalTimer(sta)
        # Edit cells on the worst path (the consequential case).
        worst = sta.report.worst("setup")
        path = sta.worst_path(worst)
        edited = []
        for point in path.points:
            if point.kind == "cell" and not point.ref.is_port and \
                    len(edited) < edit_count:
                name = point.ref.instance
                if swap_vt(design, lib, name, "lvt") or \
                        upsize(design, lib, name):
                    edited.append(name)
        assert edited
        incremental = timer.update_cells(edited)

        reference = STA(design, lib, sta.constraints).run()
        inc_slacks = slack_map(incremental)
        ref_slacks = slack_map(reference)
        assert set(inc_slacks) == set(ref_slacks)
        for endpoint, slack in ref_slacks.items():
            assert inc_slacks[endpoint] == pytest.approx(slack, abs=0.01)

    def test_hold_slacks_match_too(self, lib):
        design, sta = fresh_setup(lib)
        timer = IncrementalTimer(sta)
        name = next(
            i.name for i in design.combinational_instances(lib)
            if i.cell_name.startswith("NAND2")
        )
        upsize(design, lib, name)
        incremental = timer.update_cells([name])
        reference = STA(design, lib, sta.constraints).run()
        for endpoint, slack in slack_map(reference, "hold").items():
            assert slack_map(incremental, "hold")[endpoint] == \
                pytest.approx(slack, abs=0.01)

    def test_paths_still_reconstructible(self, lib):
        design, sta = fresh_setup(lib)
        timer = IncrementalTimer(sta)
        worst = sta.report.worst("setup")
        path = sta.worst_path(worst)
        name = next(p.ref.instance for p in path.points
                    if p.kind == "cell" and not p.ref.is_port)
        swap_vt(design, lib, name, "lvt")
        report = timer.update_cells([name])
        new_worst = report.worst("setup")
        new_path = sta.worst_path(new_worst)
        assert new_path.points  # backpointers intact after the update

    def test_full_update_counter(self, lib):
        design, sta = fresh_setup(lib, n_gates=80)
        timer = IncrementalTimer(sta)
        timer.full_update()
        assert timer.full_updates == 1


class TestEfficiency:
    def test_cone_smaller_than_design(self, lib):
        design, sta = fresh_setup(lib)
        timer = IncrementalTimer(sta)
        # A cell near the capture flops has a tiny downstream cone.
        worst = sta.report.worst("setup")
        path = sta.worst_path(worst)
        last_cell = [p for p in path.points
                     if p.kind == "cell" and not p.ref.is_port][-1]
        name = last_cell.ref.instance
        if not swap_vt(design, lib, name, "lvt"):
            upsize(design, lib, name)
        timer.update_cells([name])
        assert 0 < timer.last_cone_size < \
            0.5 * len(sta.graph.topo_order)

    def test_cone_update_evaluates_only_the_checks_it_reaches(
            self, lib, monkeypatch):
        """A cone update re-evaluates the checks whose data or clock pin
        the cone reaches, not every check of the design."""
        design, sta = fresh_setup(lib)
        timer = IncrementalTimer(sta)
        worst = sta.report.worst("setup")
        path = sta.worst_path(worst)
        name = [p for p in path.points
                if p.kind == "cell" and not p.ref.is_port][-1].ref.instance
        if not swap_vt(design, lib, name, "lvt"):
            upsize(design, lib, name)

        # The cone, found independently: the edited cell's pins and its
        # input nets' drivers, closed under fan-out.
        inst = design.instance(name)
        cone = set()
        for pin in lib.cell(inst.cell_name).pins:
            cone.add(PinRef(name, pin))
            driver = design.get_net(inst.net_of(pin)).driver
            if driver is not None and not driver.is_port:
                cone.add(driver)
        frontier = list(cone)
        while frontier:
            for edge in sta.graph.out_edges.get(frontier.pop(), []):
                dst = edge.sink if isinstance(edge, NetEdge) else edge.dst
                if dst not in cone:
                    cone.add(dst)
                    frontier.append(dst)
        reached = [c for c in sta.graph.checks
                   if c.data_pin in cone or c.clock_pin in cone]
        assert len(reached) < len(sta.graph.checks) // 4

        calls = []
        original = TimingArc.constraint_value

        def counting(arc, *args, **kwargs):
            calls.append(arc)
            return original(arc, *args, **kwargs)

        monkeypatch.setattr(TimingArc, "constraint_value", counting)
        report = timer.update_cells([name])
        monkeypatch.undo()
        assert timer.last_cone_size == len(cone)
        assert 0 < len(calls) <= 2 * len(reached)
        assert report.render_full() == \
            STA(design, lib, sta.constraints).run().render_full()

    def test_incremental_faster_than_rebuild(self, lib):
        design, sta = fresh_setup(lib, n_gates=600, seed=9)
        timer = IncrementalTimer(sta)
        worst = sta.report.worst("setup")
        path = sta.worst_path(worst)
        last_cell = [p for p in path.points
                     if p.kind == "cell" and not p.ref.is_port][-1]
        name = last_cell.ref.instance
        swap_vt(design, lib, name, "lvt")

        t0 = time.perf_counter()
        timer.update_cells([name])
        incremental_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        STA(design, lib, sta.constraints).run()
        full_time = time.perf_counter() - t0
        # Conservative bound: the cone update must clearly beat a rebuild.
        assert incremental_time < full_time


class TestSiDeltas:
    """Regression: cone re-propagation must carry coupling deltas.

    The update used to pass an empty ``si_delta`` into the net-edge
    propagation, silently dropping every stored coupling penalty inside
    the cone (~18 ps endpoint error on this workload). The fix threads
    the stored deltas through and re-evaluates exactly the nets the
    edit touched electrically.
    """

    def _si_setup(self, lib):
        design = random_logic(n_gates=300, n_levels=10, seed=7)
        constraints = Constraints.single_clock(520.0)
        constraints.input_delays = {f"in{i}": 60.0 for i in range(32)}
        sta = STA(design, lib, constraints, si_enabled=True)
        sta.report = sta.run()
        return design, sta

    def test_incremental_matches_full_with_si(self, lib):
        design, sta = self._si_setup(lib)
        assert sta.si_delta  # the scenario really has coupling penalties
        timer = IncrementalTimer(sta)
        worst = sta.report.worst("setup")
        path = sta.worst_path(worst)
        name = next(p.ref.instance for p in path.points
                    if p.kind == "cell" and not p.ref.is_port)
        assert swap_vt(design, lib, name, "lvt") or \
            upsize(design, lib, name)

        incremental = timer.update_cells([name])
        reference = STA(design, lib, sta.constraints,
                        si_enabled=True).run()
        assert incremental.wns("setup") == \
            pytest.approx(reference.wns("setup"), abs=1e-9)
        assert incremental.tns("setup") == \
            pytest.approx(reference.tns("setup"), abs=1e-9)
        ref_slacks = slack_map(reference)
        inc_slacks = slack_map(incremental)
        assert set(inc_slacks) == set(ref_slacks)
        for endpoint, slack in ref_slacks.items():
            assert inc_slacks[endpoint] == pytest.approx(slack, abs=1e-9)

    def test_touched_net_deltas_are_reevaluated(self, lib):
        design, sta = self._si_setup(lib)
        timer = IncrementalTimer(sta)
        name = next(
            i.name for i in design.combinational_instances(lib)
            if i.cell_name.startswith("NAND2")
        )
        assert upsize(design, lib, name)  # drive strength changes deltas
        timer.update_cells([name])
        reference = STA(design, lib, sta.constraints, si_enabled=True)
        reference.run()
        inst = design.instance(name)
        out_net = inst.net_of("ZN")
        assert sta.si_delta.get(out_net, 0.0) == \
            pytest.approx(reference.si_delta.get(out_net, 0.0), abs=1e-12)


class TestOwnership:
    """Each report owns its records: reports share no endpoint or slew
    object, so mutating one (as cache corruption does) cannot reach the
    next."""

    @staticmethod
    def _record_ids(report):
        return {id(r) for r in report.setup + report.hold
                + report.slew_violations}

    def _tight_setup(self, lib):
        design = random_logic(n_gates=220, n_levels=8, seed=3)
        constraints = Constraints.single_clock(520.0)
        constraints.input_delays = {f"in{i}": 60.0 for i in range(32)}
        constraints.max_transition = 60.0
        sta = STA(design, lib, constraints)
        sta.report = sta.run()
        assert sta.report.slew_violations
        return design, sta

    def test_update_shares_no_record_with_the_previous_report(self, lib):
        design, sta = self._tight_setup(lib)
        timer = IncrementalTimer(sta)
        previous = sta.report
        names = [i.name for i in design.combinational_instances(lib)]
        for name in names[:3]:
            assert swap_vt(design, lib, name, "lvt") or \
                upsize(design, lib, name)
            report = timer.update_cells([name])
            assert not self._record_ids(report) & \
                self._record_ids(previous)
            previous = report

    def test_mutated_report_does_not_leak_into_the_next(self, lib):
        design, sta = self._tight_setup(lib)
        timer = IncrementalTimer(sta)
        names = [i.name for i in design.combinational_instances(lib)]

        def corrupt(report):
            for record in report.setup + report.hold:
                record.slack = -1e6
                record.startpoint = None
            for violation in report.slew_violations:
                violation.slew = 1e6

        corrupt(sta.report)  # the full run's report, indexed at build
        for name in (names[0], names[-1]):
            assert swap_vt(design, lib, name, "lvt") or \
                upsize(design, lib, name)
            report = timer.update_cells([name])
            assert report.render_full() == \
                STA(design, lib, sta.constraints).run().render_full()
            corrupt(report)


class TestNoOpUpdate:
    """A no-op edit set must not recompute."""

    def test_noop_returns_existing_report(self, lib):
        design, sta = fresh_setup(lib, n_gates=80)
        timer = IncrementalTimer(sta)
        before = sta.report
        report = timer.update_cells([])
        assert report is before
        assert timer.incremental_updates == 0
        assert timer.full_updates == 0

    def test_noop_before_first_report_builds_one(self, lib):
        design, sta = fresh_setup(lib, n_gates=80)
        reference = sta.report
        sta.report = None
        timer = IncrementalTimer(sta)
        report = timer.update_cells([])
        assert report is sta.report
        assert slack_map(report) == slack_map(reference)

    def test_noop_reports_an_empty_cone(self, lib):
        """A no-op after a cone update must not report that update's
        cone as its own."""
        design = aes_like(n_sboxes=2, sbox_gates=30, seed=2001)
        sta = STA(design, lib, Constraints.single_clock(600.0))
        sta.run()
        timer = IncrementalTimer(sta)
        name = next(i.name for i in design.combinational_instances(lib)
                    if swap_vt(design, lib, i.name, "lvt"))
        timer.update_cells([name])
        assert timer.last_cone_size > 0
        timer.update_cells([])
        assert timer.last_cone_size == 0


class TestAtomicity:
    """update_cells validates every edit before mutating anything."""

    def _corrupt(self, design, lib, name):
        """An illegal 'swap' behind the timer's back: point the instance
        at a cell whose arc set cannot match (NAND2 -> INV drops the B
        arc), bypassing swap_cell's footprint guard."""
        inst = design.instance(name)
        old = inst.cell_name
        inst.cell_name = old.replace("NAND2", "INV")
        lib.cell(inst.cell_name)  # the variant exists; arcs still differ
        return old

    def test_failed_swap_mutates_nothing(self, lib):
        design, sta = fresh_setup(lib, n_gates=120)
        timer = IncrementalTimer(sta)
        name = next(
            i.name for i in design.combinational_instances(lib)
            if i.cell_name.startswith("NAND2")
        )
        report_before = sta.report
        arrivals_before = dict(sta.prop.arrivals)
        old_cell = self._corrupt(design, lib, name)

        with pytest.raises(TimingError, match="full rebuild"):
            timer.update_cells([name])

        assert sta.report is report_before
        assert sta.prop.arrivals == arrivals_before
        assert timer.incremental_updates == 0
        design.instance(name).cell_name = old_cell

    def test_failed_batch_applies_no_member(self, lib):
        """One bad edit poisons the whole batch: the good instance's
        graph edges must not be rebound either."""
        design, sta = fresh_setup(lib, n_gates=120)
        timer = IncrementalTimer(sta)
        instances = [
            i.name for i in design.combinational_instances(lib)
            if i.cell_name.startswith("NAND2")
        ]
        good, bad = instances[0], instances[1]
        assert upsize(design, lib, good)
        old_cell = self._corrupt(design, lib, bad)

        arrivals_before = dict(sta.prop.arrivals)
        with pytest.raises(TimingError, match="full rebuild"):
            timer.update_cells([good, bad])
        assert sta.prop.arrivals == arrivals_before

        # The timer is still usable: absorb the good edit alone and
        # land exactly on a from-scratch run.
        design.instance(bad).cell_name = old_cell
        incremental = timer.update_cells([good])
        reference = STA(design, lib, sta.constraints).run()
        for endpoint, slack in slack_map(reference).items():
            assert slack_map(incremental)[endpoint] == \
                pytest.approx(slack, abs=1e-9)

    def test_full_update_recovers_from_arc_set_change(self, lib):
        """The documented fallback: an edit the cone update refuses is
        absorbed by full_update on the same timer."""
        design, sta = fresh_setup(lib, n_gates=120)
        timer = IncrementalTimer(sta)
        name = next(
            i.name for i in design.combinational_instances(lib)
            if i.cell_name.startswith("NAND2")
        )
        old_cell = self._corrupt(design, lib, name)
        with pytest.raises(TimingError):
            timer.update_cells([name])
        design.instance(name).cell_name = old_cell
        assert upsize(design, lib, name)
        report = timer.full_update()
        reference = STA(design, lib, sta.constraints).run()
        for endpoint, slack in slack_map(reference).items():
            assert slack_map(report)[endpoint] == \
                pytest.approx(slack, abs=1e-9)
