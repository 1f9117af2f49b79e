"""Tests for session-isolated copy-on-write design overlays.

The headline property (and the satellite this file anchors): concurrent
sessions holding conflicting ECOs on the same instances and nets never
observe each other's edits — including when one session aborts
mid-apply.
"""

import threading

import pytest

from repro.errors import NetlistError, ServeError
from repro.netlist.transforms import Edit
from repro.serve import DesignOverlay, OverlayEdit
from repro.sta.incremental import split_edits
from tests.serve.conftest import make_design, nand2_instance


def edit(kind, target, value=None):
    return OverlayEdit(kind=kind, target=target, value=value)


@pytest.fixture
def base():
    return make_design()


class TestWireShape:
    def test_roundtrip(self):
        e = edit("set_cell", "g0", "NAND2_X2_SVT")
        assert OverlayEdit.from_wire(e.to_wire()) == e

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServeError):
            OverlayEdit.from_wire({"kind": "delete_instance", "target": "g0"})

    def test_empty_target_rejected(self):
        with pytest.raises(ServeError):
            OverlayEdit.from_wire({"kind": "set_cell", "target": ""})


class TestCopyOnWrite:
    def test_reads_fall_through_to_base(self, base):
        overlay = DesignOverlay(base, "s-1")
        target = nand2_instance(base)
        assert overlay.cell_of(target) == base.instances[target].cell_name

    def test_unedited_instances_are_shared_objects(self, base):
        overlay = DesignOverlay(base, "s-1")
        target = nand2_instance(base)
        overlay.apply([edit("set_cell", target, "NAND2_X2_SVT")])
        view = overlay.materialize()
        for name, inst in base.instances.items():
            if name == target:
                assert view.instances[name] is not inst
                assert view.instances[name].cell_name == "NAND2_X2_SVT"
            else:
                assert view.instances[name] is inst
        stats = overlay.stats()
        assert stats["private_instances"] == 1
        assert stats["shared_instances"] == len(base.instances) - 1

    def test_nets_are_always_private(self, base):
        view = DesignOverlay(base, "s-1").materialize()
        for name, net in base.nets.items():
            assert view.nets[name] is not net

    def test_base_design_never_mutated(self, base):
        target = nand2_instance(base)
        before_cell = base.instances[target].cell_name
        overlay = DesignOverlay(base, "s-1")
        overlay.apply([
            edit("set_cell", target, "NAND2_X2_SVT"),
            edit("add_cap", "n0", 20.0),
            edit("set_ndr", "n0", True),
        ])
        overlay.materialize()
        assert base.instances[target].cell_name == before_cell
        assert base.nets["n0"].extra_cap == 0.0
        assert not base.nets["n0"].ndr

    def test_design_name_is_session_scoped(self, base):
        overlay = DesignOverlay(base, "s-7")
        assert overlay.design_name == f"{base.name}@s-7"
        assert overlay.materialize().name == f"{base.name}@s-7"

    def test_apply_updates_materialized_in_place(self, base):
        overlay = DesignOverlay(base, "s-1")
        view = overlay.materialize()
        target = nand2_instance(base)
        overlay.apply([edit("set_cell", target, "NAND2_X2_SVT")])
        assert overlay.materialize() is view  # warm timers keep binding it
        assert view.instances[target].cell_name == "NAND2_X2_SVT"

    def test_add_cap_accumulates(self, base):
        overlay = DesignOverlay(base, "s-1")
        overlay.apply([edit("add_cap", "n0", 10.0)])
        overlay.apply([edit("add_cap", "n0", 5.0)])
        view = overlay.materialize()
        assert view.nets["n0"].extra_cap == pytest.approx(
            base.nets["n0"].extra_cap + 15.0
        )

    def test_topology_flags(self, base):
        """apply returns the edit records it committed; the timer's rule
        reads a swap as cone-retimable and a net edit as a full update."""
        overlay = DesignOverlay(base, "s-1")
        target = nand2_instance(base)
        before = base.instances[target].cell_name
        records = overlay.apply([edit("set_cell", target, "NAND2_X2_SVT")])
        assert records == [Edit("swap", target, before, "NAND2_X2_SVT")]
        assert split_edits(records) == ([target], False)
        records = overlay.apply([edit("set_ndr", "n0", True),
                                 edit("add_cap", "n0", 5.0),
                                 edit("add_cap", "n0", 2.5)])
        assert records == [Edit("ndr", "n0", "False", "True"),
                           Edit("cap", "n0", "0.0", "5.0"),
                           Edit("cap", "n0", "5.0", "7.5")]
        assert split_edits(records) == ([], True)


class TestAtomicity:
    def test_bad_edit_anywhere_aborts_whole_batch(self, base):
        overlay = DesignOverlay(base, "s-1")
        target = nand2_instance(base)
        with pytest.raises(NetlistError):
            overlay.apply([
                edit("set_cell", target, "NAND2_X2_SVT"),  # valid
                edit("set_cell", "no_such_instance", "INV_X1_SVT"),
            ])
        assert overlay.version == 0
        assert overlay.edit_count == 0
        assert overlay.cell_of(target) == base.instances[target].cell_name
        assert overlay.materialize().instances[target] is \
            base.instances[target]

    def test_abort_preserves_earlier_commits(self, base):
        overlay = DesignOverlay(base, "s-1")
        target = nand2_instance(base)
        overlay.apply([edit("set_cell", target, "NAND2_X2_SVT")])
        with pytest.raises(ServeError):
            overlay.apply([
                edit("add_cap", "n0", 5.0),
                edit("add_cap", "n1", "not-a-number"),
            ])
        assert overlay.version == 1
        assert overlay.edit_count == 1
        assert overlay.cell_of(target) == "NAND2_X2_SVT"
        view = overlay.materialize()
        assert view.nets["n0"].extra_cap == base.nets["n0"].extra_cap

    def test_dont_touch_rejected(self, base):
        target = nand2_instance(base)
        base.instances[target].dont_touch = True
        overlay = DesignOverlay(base, "s-1")
        with pytest.raises(NetlistError):
            overlay.apply([edit("set_cell", target, "NAND2_X2_SVT")])

    def test_set_cell_needs_string_value(self, base):
        overlay = DesignOverlay(base, "s-1")
        with pytest.raises(ServeError):
            overlay.apply([edit("set_cell", nand2_instance(base), None)])

    def test_discard_drops_everything(self, base):
        overlay = DesignOverlay(base, "s-1")
        target = nand2_instance(base)
        overlay.apply([edit("set_cell", target, "NAND2_X2_SVT"),
                       edit("add_cap", "n0", 9.0)])
        assert overlay.discard() == 2
        assert overlay.edit_count == 0
        assert overlay.cell_of(target) == base.instances[target].cell_name
        view = overlay.materialize()
        assert view.instances[target] is base.instances[target]
        assert view.nets["n0"].extra_cap == base.nets["n0"].extra_cap

    def test_refresh_keeps_edits_but_rebuilds_view(self, base):
        overlay = DesignOverlay(base, "s-1")
        target = nand2_instance(base)
        overlay.apply([edit("set_cell", target, "NAND2_X2_SVT")])
        old_view = overlay.materialize()
        overlay.refresh()
        new_view = overlay.materialize()
        assert new_view is not old_view
        assert new_view.nets["n0"] is not old_view.nets["n0"]
        assert new_view.instances[target].cell_name == "NAND2_X2_SVT"
        # A zombie mutating the old view cannot reach the new one.
        old_view.nets["n0"].extra_cap = 999.0
        assert new_view.nets["n0"].extra_cap == base.nets["n0"].extra_cap


class TestConcurrentSessionIsolation:
    """Satellite: conflicting ECOs on the same nets never cross-observe."""

    def test_conflicting_cell_edits_stay_private(self, base):
        target = nand2_instance(base)
        a = DesignOverlay(base, "s-a")
        b = DesignOverlay(base, "s-b")
        a.apply([edit("set_cell", target, "NAND2_X2_SVT")])
        b.apply([edit("set_cell", target, "NAND2_X4_SVT")])
        view_a, view_b = a.materialize(), b.materialize()
        assert view_a.instances[target].cell_name == "NAND2_X2_SVT"
        assert view_b.instances[target].cell_name == "NAND2_X4_SVT"
        assert view_a.instances[target] is not view_b.instances[target]
        assert base.instances[target].cell_name.startswith("NAND2_X1")
        # Unedited instances still alias one shared object across all
        # three views of the design.
        other = next(n for n in base.instances if n != target)
        assert view_a.instances[other] is base.instances[other]
        assert view_b.instances[other] is base.instances[other]

    def test_conflicting_net_edits_stay_private(self, base):
        a = DesignOverlay(base, "s-a")
        b = DesignOverlay(base, "s-b")
        a.apply([edit("add_cap", "n0", 10.0)])
        b.apply([edit("add_cap", "n0", 30.0), edit("set_ndr", "n0", True)])
        net_a = a.materialize().nets["n0"]
        net_b = b.materialize().nets["n0"]
        assert net_a is not net_b
        assert net_a.extra_cap == pytest.approx(10.0)
        assert not net_a.ndr
        assert net_b.extra_cap == pytest.approx(30.0)
        assert net_b.ndr
        assert base.nets["n0"].extra_cap == 0.0

    def test_abort_mid_apply_invisible_to_other_sessions(self, base):
        target = nand2_instance(base)
        a = DesignOverlay(base, "s-a")
        b = DesignOverlay(base, "s-b")
        a.apply([edit("set_cell", target, "NAND2_X2_SVT")])
        view_a = a.materialize()
        # Session b aborts mid-apply: first edit of the batch conflicts
        # with a's, second is invalid, so the batch must vanish whole.
        with pytest.raises(NetlistError):
            b.apply([
                edit("set_cell", target, "NAND2_X4_SVT"),
                edit("add_cap", "no_such_net", 5.0),
            ])
        assert b.edit_count == 0
        assert b.materialize().instances[target] is base.instances[target]
        # a's committed view is untouched by b's abort.
        assert a.materialize() is view_a
        assert view_a.instances[target].cell_name == "NAND2_X2_SVT"
        assert base.instances[target].cell_name.startswith("NAND2_X1")

    def test_many_sessions_thread_stress(self, base):
        target = nand2_instance(base)
        sizes = ["NAND2_X2_SVT", "NAND2_X4_SVT"]
        failures = []

        def session(i):
            overlay = DesignOverlay(base, f"s-{i}")
            want = sizes[i % len(sizes)]
            try:
                overlay.apply([
                    edit("set_cell", target, want),
                    edit("add_cap", "n0", float(i + 1)),
                ])
                if i % 3 == 0:
                    # Interleave aborting batches with the commits.
                    try:
                        overlay.apply([edit("add_cap", "nope", 1.0)])
                    except NetlistError:
                        pass
                for _ in range(20):
                    view = overlay.materialize()
                    if view.instances[target].cell_name != want:
                        failures.append((i, "cell leaked"))
                    if view.nets["n0"].extra_cap != pytest.approx(i + 1):
                        failures.append((i, "cap leaked"))
            except Exception as exc:  # noqa: BLE001 - collect, don't die
                failures.append((i, repr(exc)))

        threads = [threading.Thread(target=session, args=(i,))
                   for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not failures, failures
        assert base.instances[target].cell_name.startswith("NAND2_X1")
        assert base.nets["n0"].extra_cap == 0.0
