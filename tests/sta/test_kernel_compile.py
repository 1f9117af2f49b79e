"""Unit tests for the kernel's graph flattening and table stacking.

The equivalence suite (:mod:`tests.sta.test_kernel_equivalence`) gates
the kernel end to end; these tests pin the *compile* invariants the
batched pass silently depends on — levelized scheduling (every source
strictly precedes its sink), dense pin/node index maps that round-trip,
and stacked NLDM tensors whose vectorized bilinear lookup reproduces
:meth:`repro.liberty.tables.LookupTable2D.lookup` point-for-point,
including linear extrapolation outside the characterized grid. The
failure modes get the same treatment: corners whose libraries disagree
on arc sets or table shapes must refuse to compile with
:class:`~repro.sta.kernel.KernelCompileError`, because a silently
mis-stacked tensor would time the wrong cell.
"""

import copy

import numpy as np
import pytest

from repro.beol.corners import conventional_corners
from repro.beol.stack import default_stack
from repro.errors import TimingError
from repro.liberty import make_library
from repro.liberty.stdcells import LibraryCondition
from repro.liberty.tables import LookupTable2D
from repro.netlist.generators import random_logic
from repro.sta import Constraints
from repro.sta.graph import NetEdge
from repro.sta.kernel import (
    ENGINES,
    CornerSpec,
    KernelCompileError,
    compile_kernel,
)
from repro.sta.propagation import DIRECTIONS


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
    }


@pytest.fixture(scope="module")
def compiled(libs, stack):
    design = random_logic(n_inputs=6, n_outputs=6, n_gates=80,
                          n_levels=5, seed=21)
    constraints = Constraints.single_clock(500.0)
    corners = conventional_corners(stack)
    specs = [
        CornerSpec(name="tt_typ", library=libs["tt"],
                   beol_corner=corners["typ"], temp_c=25.0),
        CornerSpec(name="ss_cw", library=libs["ss"],
                   beol_corner=corners["cw"], temp_c=125.0),
    ]
    kernel = compile_kernel(design, constraints, specs, stack=stack)
    return design, kernel


class TestIndexMaps:
    def test_pins_follow_reference_topo_order(self, compiled):
        _, kernel = compiled
        assert kernel.pins == list(kernel.graph.topo_order)
        for i, ref in enumerate(kernel.pins):
            assert kernel.pin_index[ref] == i

    def test_node_index_round_trip(self, compiled):
        _, kernel = compiled
        seen = set()
        for ref in kernel.pins:
            for direction in DIRECTIONS:
                node = kernel._node_index[(ref, direction)]
                seen.add(node)
                # node = pin_index * 2 + dir decodes back losslessly.
                assert kernel.pins[node >> 1] == ref
                assert DIRECTIONS[node & 1] == direction
        assert seen == set(range(kernel.n_nodes))


class TestLevelization:
    def test_sources_strictly_precede_sinks(self, compiled):
        _, kernel = compiled
        level = kernel.pin_level
        for e in range(len(kernel.e_src)):
            src = kernel.pins[int(kernel.e_src[e]) >> 1]
            dst = kernel.pins[int(kernel.e_dst[e]) >> 1]
            assert level[src] < level[dst]

    def test_schedule_partitions_every_expansion_once(self, compiled):
        _, kernel = compiled
        level = kernel.pin_level
        net_seen, cell_seen = [], []
        for lvl, (net_ids, cell_ids) in enumerate(kernel._schedule):
            for e in net_ids:
                assert level[kernel.pins[int(kernel.e_dst[e]) >> 1]] == lvl
            for e in cell_ids:
                assert level[kernel.pins[int(kernel.e_dst[e]) >> 1]] == lvl
            net_seen.extend(int(e) for e in net_ids)
            cell_seen.extend(int(e) for e in cell_ids)
        assert sorted(net_seen) == sorted(int(e) for e in kernel._net_rows)
        assert sorted(cell_seen) == sorted(int(e) for e in kernel._cell_rows)
        assert len(net_seen) == len(set(net_seen))
        assert len(cell_seen) == len(set(cell_seen))

    def test_levels_are_longest_paths(self, compiled):
        _, kernel = compiled
        graph, level = kernel.graph, kernel.pin_level
        for ref in kernel.pins:
            fanin = [
                edge.driver if isinstance(edge, NetEdge) else edge.src
                for edge in graph.in_edges.get(ref, [])
            ]
            want = max((level[src] + 1 for src in fanin), default=0)
            assert level[ref] == want


class TestTableStacking:
    #: Sample points inside the NLDM grid and beyond both edges — the
    #: scalar lookup extrapolates linearly outside, and the stacked
    #: tensors must reproduce that too.
    SAMPLES = [(12.0, 1.5), (45.0, 6.0), (95.0, 14.0),
               (0.5, 0.05), (400.0, 80.0)]

    def _corner_table(self, design, kernel, e, ci, which):
        """The scalar LookupTable2D a cell expansion row stacks at a
        corner, resolved straight from that corner's library."""
        edge = kernel.e_edge[e]
        cell_name = design.instance(edge.instance).cell_name
        cell = kernel.corners[ci].library.cell(cell_name)
        key = (edge.arc.related_pin, edge.arc.pin, edge.arc.timing_type)
        arc = next(
            a for a in cell.arcs
            if (a.related_pin, a.pin, a.timing_type) == key
        )
        out_dir = DIRECTIONS[int(kernel.e_dst[e]) & 1]
        timing = arc.timing[out_dir]
        return timing.delay if which == "delay" else timing.slew

    def test_stacked_lookup_matches_scalar(self, compiled):
        design, kernel = compiled
        n_corners = len(kernel.corners)
        # Every distinct (delay, slew) table pair reached through the
        # first ~40 cell rows, at every sample point and corner.
        rows = [int(e) for e in kernel._cell_rows[:40]]
        for e in rows:
            for which, tid_arr in (("delay", kernel._dtid),
                                   ("slew", kernel._stid)):
                tid = np.asarray([tid_arr[e]])
                for slew, load in self.SAMPLES:
                    got = kernel._bilinear(
                        tid,
                        np.full((1, n_corners), slew),
                        np.full((1, n_corners), load),
                    )
                    for ci in range(n_corners):
                        table = self._corner_table(design, kernel, e, ci,
                                                   which)
                        assert got[0, ci] == pytest.approx(
                            table.lookup(slew, load), abs=1e-12
                        )

    def test_tables_deduplicated_across_instances(self, compiled):
        _, kernel = compiled
        # Table count scales with cell *types*, not instances: far
        # fewer stacked tables than cell expansion rows.
        assert kernel.n_tables < kernel.n_cell_expansions


class TestCompileFailures:
    def _base(self, libs, stack):
        design = random_logic(n_inputs=4, n_outputs=4, n_gates=30,
                              n_levels=3, seed=5)
        constraints = Constraints.single_clock(500.0)
        corners = conventional_corners(stack)
        used = design.combinational_instances(libs["tt"])[0].cell_name
        return design, constraints, corners, used

    def test_missing_arc_refuses_to_compile(self, libs, stack):
        design, constraints, corners, used = self._base(libs, stack)
        broken = copy.deepcopy(libs["tt"])
        broken.cell(used).arcs = []
        specs = [
            CornerSpec(name="tt", library=libs["tt"],
                       beol_corner=corners["typ"], temp_c=25.0),
            CornerSpec(name="broken", library=broken,
                       beol_corner=corners["cw"], temp_c=25.0),
        ]
        with pytest.raises(KernelCompileError):
            compile_kernel(design, constraints, specs, stack=stack)

    def test_table_shape_mismatch_refuses_to_compile(self, libs, stack):
        design, constraints, corners, used = self._base(libs, stack)
        broken = copy.deepcopy(libs["tt"])
        arc = broken.cell(used).delay_arcs()[0]
        for timing in arc.timing.values():
            t = timing.delay
            timing.delay = LookupTable2D(
                t.index_1[:-1], t.index_2, t.values[:-1, :]
            )
        specs = [
            CornerSpec(name="tt", library=libs["tt"],
                       beol_corner=corners["typ"], temp_c=25.0),
            CornerSpec(name="broken", library=broken,
                       beol_corner=corners["cw"], temp_c=25.0),
        ]
        with pytest.raises(KernelCompileError):
            compile_kernel(design, constraints, specs, stack=stack)

    def test_empty_corner_list_refuses_to_compile(self, libs, stack):
        design, constraints, _, _ = self._base(libs, stack)
        with pytest.raises(TimingError):
            compile_kernel(design, constraints, [], stack=stack)


class TestLifecycle:
    def test_results_require_run(self, compiled):
        design, _ = compiled
        # A freshly compiled kernel (never run) refuses to report.
        corners = conventional_corners(default_stack())
        spec = CornerSpec(name="tt", library=make_library(),
                          beol_corner=corners["typ"], temp_c=25.0)
        small = random_logic(n_inputs=3, n_outputs=3, n_gates=12,
                             n_levels=2, seed=2)
        kernel = compile_kernel(small, Constraints.single_clock(500.0),
                                [spec])
        with pytest.raises(TimingError):
            kernel.report(0)
        kernel.run()
        assert kernel.report(0).endpoints("setup")

    def test_engines_registry(self):
        assert ENGINES == ("reference", "vector")

    def test_work_ratio_counts_scalar_vs_batch(self, compiled):
        _, kernel = compiled
        kernel.run()
        stats = kernel.stats()
        # Two corners over the same graph: the scalar engines would
        # visit every expansion once per corner; the kernel visits each
        # level once regardless of corner count.
        assert stats["scalar_edge_visits"] == \
            2 * (kernel.n_net_expansions + kernel.n_cell_expansions)
        assert stats["batch_ops"] <= 2 * kernel.n_levels
        assert kernel.work_ratio() > 1.0
