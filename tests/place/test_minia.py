"""Tests for placement rows and MinIA checking/fixing."""

import random

import pytest

from repro.errors import PlacementError
from repro.liberty import make_library
from repro.netlist.generators import random_logic, tiny_design
from repro.netlist.transforms import swap_vt
from repro.place.minia import (
    find_minia_violations,
    fix_minia_violations,
)
from repro.place.rows import PlacedCell, Placement, Row


@pytest.fixture(scope="module")
def lib():
    return make_library()


def mixed_vt_design(lib, seed=1, swap_fraction=0.3):
    d = random_logic(n_gates=150, n_levels=8, seed=seed)
    d.bind(lib)
    rng = random.Random(seed)
    for name in list(d.instances):
        inst = d.instances[name]
        if not lib.cell(inst.cell_name).is_sequential and \
                rng.random() < swap_fraction:
            swap_vt(d, lib, name, rng.choice(["lvt", "hvt"]))
    return d


class TestRows:
    def test_legalize_removes_overlaps(self):
        row = Row(index=0, cells=[
            PlacedCell("a", 0.0, 2.0, "svt"),
            PlacedCell("b", 1.0, 2.0, "svt"),  # overlaps a
        ])
        displacement = row.legalize()
        assert displacement == pytest.approx(1.0)
        assert row.cells[1].x == pytest.approx(2.0)

    def test_runs_split_by_flavor(self):
        row = Row(index=0, cells=[
            PlacedCell("a", 0.0, 1.0, "svt"),
            PlacedCell("b", 1.0, 1.0, "svt"),
            PlacedCell("c", 2.0, 1.0, "hvt"),
            PlacedCell("d", 3.0, 1.0, "svt"),
        ])
        runs = row.runs()
        assert [len(r) for r in runs] == [2, 1, 1]

    def test_runs_split_by_gap(self):
        row = Row(index=0, cells=[
            PlacedCell("a", 0.0, 1.0, "svt"),
            PlacedCell("b", 5.0, 1.0, "svt"),  # gap
        ])
        assert len(row.runs()) == 2

    def test_from_design_places_located_instances(self, lib):
        d = tiny_design()
        d.bind(lib)
        placement = Placement.from_design(d, lib)
        assert placement.total_cells() == 5

    def test_missing_cell_raises(self, lib):
        d = tiny_design()
        d.bind(lib)
        placement = Placement.from_design(d, lib)
        with pytest.raises(PlacementError):
            placement.cell("nope")

    def test_abut_all_removes_gaps(self, lib):
        d = tiny_design()
        d.bind(lib)
        placement = Placement.from_design(d, lib)
        placement.abut_all()
        for row in placement.rows.values():
            for a, b in zip(row.cells, row.cells[1:]):
                assert b.x == pytest.approx(a.right)


class TestChecker:
    def test_fig6a_scenario(self):
        """A narrow Vt2 cell sandwiched between Vt1 cells violates."""
        row = Row(index=0, cells=[
            PlacedCell("c1", 0.0, 2.0, "svt"),
            PlacedCell("c2", 2.0, 0.5, "hvt"),  # narrow island
            PlacedCell("c3", 2.5, 2.0, "svt"),
        ])
        placement = Placement({0: row})
        violations = find_minia_violations(placement, min_width=1.0)
        assert len(violations) == 1
        assert violations[0].cells == ("c2",)
        assert violations[0].vt_flavor == "hvt"

    def test_wide_island_passes(self):
        row = Row(index=0, cells=[
            PlacedCell("c1", 0.0, 2.0, "svt"),
            PlacedCell("c2", 2.0, 1.5, "hvt"),
            PlacedCell("c3", 3.5, 2.0, "svt"),
        ])
        placement = Placement({0: row})
        assert find_minia_violations(placement, min_width=1.0) == []

    def test_boundary_runs_exempt(self):
        row = Row(index=0, cells=[
            PlacedCell("c1", 0.0, 0.3, "hvt"),  # first run: exempt
            PlacedCell("c2", 0.3, 2.0, "svt"),
            PlacedCell("c3", 2.3, 0.3, "lvt"),  # last run: exempt
        ])
        placement = Placement({0: row})
        assert find_minia_violations(placement, min_width=1.0) == []

    def test_abutting_same_flavor_cells_merge(self):
        row = Row(index=0, cells=[
            PlacedCell("c1", 0.0, 2.0, "svt"),
            PlacedCell("c2", 2.0, 0.6, "hvt"),
            PlacedCell("c3", 2.6, 0.6, "hvt"),  # together 1.2 >= 1.0
            PlacedCell("c4", 3.2, 2.0, "svt"),
        ])
        placement = Placement({0: row})
        assert find_minia_violations(placement, min_width=1.0) == []


class TestFixer:
    def test_fixes_most_violations(self, lib):
        d = mixed_vt_design(lib, seed=2)
        placement = Placement.from_design(d, lib)
        placement.abut_all()
        before = find_minia_violations(placement)
        assert before  # the scenario must actually exercise the fixer
        report = fix_minia_violations(d, lib, placement)
        assert report.violations_before == len(before)
        assert report.fix_rate >= 0.9  # paper: up to 100%

    def test_fix_updates_netlist_consistently(self, lib):
        d = mixed_vt_design(lib, seed=3)
        placement = Placement.from_design(d, lib)
        placement.abut_all()
        fix_minia_violations(d, lib, placement)
        for row in placement.rows.values():
            for cell in row.cells:
                inst = d.instance(cell.name)
                assert lib.cell(inst.cell_name).vt_flavor == cell.vt_flavor

    def test_timing_guard_blocks_swaps(self, lib):
        """With every cell declared critical, slower swaps are refused."""
        d = mixed_vt_design(lib, seed=4)
        placement = Placement.from_design(d, lib)
        placement.abut_all()
        report = fix_minia_violations(
            d, lib, placement, slack_of=lambda name: -1.0, slack_guard=0.0
        )
        # Fixing may still proceed through faster swaps or regrouping,
        # but cannot be *better* than the unguarded run.
        d2 = mixed_vt_design(lib, seed=4)
        p2 = Placement.from_design(d2, lib)
        p2.abut_all()
        free = fix_minia_violations(d2, lib, p2)
        assert report.fix_rate <= free.fix_rate + 1e-9

    def test_report_counts(self, lib):
        d = mixed_vt_design(lib, seed=5)
        placement = Placement.from_design(d, lib)
        placement.abut_all()
        report = fix_minia_violations(d, lib, placement)
        assert report.swaps + report.moves > 0
        assert report.displacement >= 0.0

    def test_clean_design_untouched(self, lib):
        d = random_logic(n_gates=60, n_levels=4, seed=6)  # all SVT
        d.bind(lib)
        placement = Placement.from_design(d, lib)
        placement.abut_all()
        report = fix_minia_violations(d, lib, placement)
        assert report.violations_before == 0
        assert report.fix_rate == 1.0
        assert report.swaps == 0
