"""Compiled vectorized multi-corner STA kernel.

The reference engine (:mod:`repro.sta.propagation`) walks the object
graph once *per scenario*: with the paper's corner super-explosion (7
BEOL corners x Vt x temperature) that is N full Python traversals of the
same netlist. This module compiles the bound timing graph **once** into
flat numpy arrays — levelized edge lists, pin/arc index maps, and
stacked NLDM delay/slew table tensors with the corner as the leading
axis — and then propagates arrivals/slews for *every corner of a mode
simultaneously* in one batched forward pass.

Design rules that make the kernel trustworthy:

- **The reference engine is the oracle.** Every per-corner static
  quantity (wire delays, slew degradations, driver loads, derate
  factors, SI deltas, useful-skew offsets) is precomputed at compile
  time *through the existing scalar code paths*, and the vectorized
  expressions replicate the reference engine's floating-point grouping
  exactly. The equivalence harness
  (``tests/sta/test_kernel_equivalence.py``) pins agreement at 1e-9 for
  arrivals, slews and endpoint slacks across MCMM corners, derates, SI
  on/off and CPPR.
- **Reports are bit-compatible.** Per-corner results materialize into
  ordinary :class:`~repro.sta.propagation.PropagationResult` objects
  (with backpointers reconstructed from the batch candidates), and the
  endpoint evaluation *borrows the reference implementation* via
  :class:`CornerView` — a :class:`~repro.sta.analysis.STA` whose state
  is array-backed. CPPR and PBA run unchanged on a view.
- **Compilation can refuse.** Corner libraries must be structurally
  congruent (same cells, arcs, senses and table shapes); anything else
  raises :class:`KernelCompileError` so callers fall back to the
  reference engine instead of mis-timing silently.

Observability: compilation and batching emit ``kernel_compile`` /
``kernel_batch`` spans plus ``kernel.compile_s`` and
``kernel.batch_corners`` metrics, so ``repro trace summarize`` shows
where the multi-corner speedup comes from.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.beol.corners import BeolCorner, conventional_corners
from repro.beol.stack import BeolStack, default_stack
from repro.errors import LibraryError, TimingError
from repro.liberty.arcs import TimingArc, TimingType
from repro.liberty.library import Library
from repro.netlist.design import Design, PinRef
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.parasitics.synthesis import ParasiticExtractor
from repro.sta.algebra import SCALAR
from repro.sta.analysis import STA
from repro.sta.constraints import Constraints
from repro.sta.graph import CellEdge, NetEdge, TimingCheck, TimingGraph
from repro.sta.propagation import (
    DIRECTIONS,
    Arrival,
    Derates,
    PropagationResult,
    net_edge_terms,
    seed_arrivals,
)
from repro.sta.reports import SlewViolation, TimingReport

#: The two timing engines the scheduler/closure stack can run.
ENGINES = ("reference", "vector")

_INF = math.inf
#: "No backpointer" sentinel in the pred-rank arrays.
_NO_PRED = np.iinfo(np.int64).max


class KernelCompileError(TimingError):
    """The timing graph cannot be compiled for these corners.

    Raised when corner libraries are not structurally congruent (missing
    cells/arcs, differing senses or table shapes) or a corner name does
    not resolve. Callers treat this as "use the reference engine".
    """


@dataclass
class CornerSpec:
    """One corner of a batched mode: library condition + extraction view.

    All corners of one :class:`CompiledKernel` share the design and the
    mode constraints; everything else — library tables, BEOL corner,
    temperature, derates, SI — varies per corner.
    """

    name: str
    library: Library
    beol_corner: BeolCorner
    temp_c: float
    derates: Derates = field(default_factory=Derates)
    si_enabled: bool = False

    @classmethod
    def from_scenario(cls, scenario, stack: BeolStack) -> "CornerSpec":
        """The spec equivalent to :meth:`repro.sta.mcmm.Scenario.run`."""
        corners = conventional_corners(stack)
        try:
            beol = corners[scenario.beol_corner_name]
        except KeyError:
            raise KernelCompileError(
                f"unknown BEOL corner {scenario.beol_corner_name!r} "
                f"in scenario {scenario.name!r}"
            ) from None
        temp = scenario.temp_c if scenario.temp_c is not None \
            else scenario.library.temp_c
        return cls(
            name=scenario.name,
            library=scenario.library,
            beol_corner=beol,
            temp_c=temp,
            derates=scenario.derates,
            si_enabled=False,  # Scenario.run analyzes with SI off
        )

    @classmethod
    def from_sta(cls, sta: STA) -> "CornerSpec":
        """The spec equivalent to re-running an existing :class:`STA`."""
        return cls(
            name=sta.library.name,
            library=sta.library,
            beol_corner=sta.beol_corner,
            temp_c=sta.temp_c,
            derates=sta.derates,
            si_enabled=sta.si_enabled,
        )


class _SiGraphView:
    """The two attributes :func:`repro.sta.si.coupling_deltas` reads,
    bound to a *corner* library instead of the compile graph's."""

    def __init__(self, design: Design, library: Library):
        self.design = design
        self._library = library

    def cell_of(self, ref: PinRef):
        return self._library.cell(self.design.instance(ref.instance).cell_name)


def compile_kernel(
    design: Design,
    constraints: Constraints,
    corners: Sequence[CornerSpec],
    stack: Optional[BeolStack] = None,
    graph: Optional[TimingGraph] = None,
    parasitics: Optional[ParasiticExtractor] = None,
) -> "CompiledKernel":
    """Compile ``design`` against a batch of corners.

    ``graph``/``parasitics`` let a caller that already holds a bound
    graph (the incremental timer) reuse it; when given, the graph must
    have been built against ``corners[0].library``.
    """
    return CompiledKernel(design, constraints, list(corners),
                          stack=stack, graph=graph, parasitics=parasitics)


def kernel_full_run(sta: STA) -> Tuple[TimingReport, "CompiledKernel"]:
    """Time one already-constructed STA through the vector kernel.

    Produces the same ``sta.prop`` / ``sta.si_delta`` / report a
    reference :meth:`~repro.sta.analysis.STA.run` would, so path
    reconstruction, PBA and the closure loop's fix targeting work
    unchanged on the result. Raises :class:`KernelCompileError` when the
    graph cannot be compiled (caller falls back to ``sta.run()``).
    """
    kernel = compile_kernel(
        sta.design, sta.constraints, [CornerSpec.from_sta(sta)],
        stack=sta.stack, graph=sta.graph, parasitics=sta.parasitics,
    )
    kernel.run()
    sta.si_delta = kernel.si_delta_for(0)
    sta.prop = kernel.materialize_prop(0)
    return sta._report(), kernel


def run_on_engine(sta: STA, engine: str, name: str,
                  fault_injector=None) -> TimingReport:
    """Run one constructed STA on ``engine`` and return its report.

    Leaves ``sta.prop`` / ``sta.report`` as :meth:`STA.run` would. The
    vector engine first fires ``fault_injector``'s planned kernel fault
    for ``name``; a compile refusal, real or injected, counts one
    ``kernel.fallbacks`` and re-runs on the reference engine inside a
    ``kernel_fallback`` span that names ``name`` and the error.
    """
    if engine != "vector":
        return sta.run()
    try:
        if fault_injector is not None:
            fault_injector.fire_kernel(name)
        report, _ = kernel_full_run(sta)
    except KernelCompileError as exc:
        obs_metrics.inc("kernel.fallbacks")
        with obs_tracing.span("kernel_fallback", scenario=name,
                              error=str(exc)):
            return sta.run()
    sta.report = report
    return report


# ---------------------------------------------------------------------- #
# array-backed STA compatibility layer


class _LazyProp(PropagationResult):
    """A :class:`PropagationResult` materialized on demand from the
    kernel's arrays.

    Reads (``at``/``has``/``worst_late``/``best_early`` and pred walks)
    behave exactly like the reference object while only constructing the
    :class:`Arrival` entries a consumer actually touches. It is a
    *read-only* view: mutating consumers (the incremental timer's cone
    updates) must use :meth:`CompiledKernel.materialize_prop` instead.
    """

    def __init__(self, kernel: "CompiledKernel", ci: int):
        super().__init__()
        self._kernel = kernel
        self._ci = ci
        self.loads = kernel._loads_dict(ci)

    def at(self, ref: PinRef, direction: str) -> Arrival:
        key = (ref, direction)
        arr = self.arrivals.get(key)
        if arr is None:
            arr = self._kernel._make_arrival(self._ci, ref, direction)
            self.arrivals[key] = arr
        return arr

    def has(self, ref: PinRef, direction: str) -> bool:
        node = self._kernel._node_index.get((ref, direction))
        if node is None:
            return False
        return bool(self._kernel._arr_late[node, self._ci] > -_INF)


class _CornerGraph:
    """A :class:`TimingGraph`-shaped proxy for one corner.

    Shares the compile graph's structure (adjacency, clock network,
    levelization, depths) but binds checks, cell lookups and — lazily —
    edge arcs to the corner's library, so borrowed STA report code and
    PBA path re-propagation read that corner's tables.
    """

    def __init__(self, kernel: "CompiledKernel", ci: int):
        base = kernel.graph
        self._kernel = kernel
        self._ci = ci
        self.design = base.design
        self.library = kernel.corners[ci].library
        self.constraints = base.constraints
        self.checks = kernel._corner_checks[ci]
        self.clock_pins = base.clock_pins
        self.clock_roots = base.clock_roots
        self.topo_order = base.topo_order
        self.data_depth = base.data_depth

    # Adjacency with corner-rebound cell arcs, built on first use (only
    # PBA's path enumeration needs it).
    @property
    def in_edges(self):
        return self._kernel._rebound_adjacency(self._ci)[0]

    @property
    def out_edges(self):
        return self._kernel._rebound_adjacency(self._ci)[1]

    def setup_checks(self) -> List[TimingCheck]:
        return [c for c in self.checks if c.is_setup]

    def hold_checks(self) -> List[TimingCheck]:
        return [c for c in self.checks if not c.is_setup]

    def output_port_refs(self) -> List[PinRef]:
        return [PinRef("", p) for p in self.design.output_ports()]

    def load_pin_refs(self, net_name: str) -> List[PinRef]:
        return list(self.design.get_net(net_name).loads)

    def instance_of(self, ref: PinRef):
        if ref.is_port:
            raise TimingError(f"{ref} is a port, not an instance pin")
        return self.design.instance(ref.instance)

    def cell_of(self, ref: PinRef):
        return self.library.cell(self.instance_of(ref).cell_name)

    def stats(self) -> Dict[str, int]:
        return self._kernel.graph.stats()


class CornerView(STA):
    """An :class:`STA` whose run state comes from the kernel's batch.

    Everything downstream of propagation — endpoint checks, origin
    annotation, worst-path reconstruction, CPPR, PBA — is inherited
    unchanged from the reference implementation and reads this view's
    array-backed ``prop`` and corner-bound ``graph``. Views are
    read-only analyses; do not hand one to the incremental timer.
    """

    def __init__(self, kernel: "CompiledKernel", ci: int):
        # Deliberately no super().__init__(): the design stays bound to
        # the compile library (binding is library-independent for
        # congruent libraries) and no new graph/extraction is built.
        spec = kernel.corners[ci]
        self.design = kernel.design
        self.library = spec.library
        self.constraints = kernel.constraints
        self.stack = kernel.stack
        self.temp_c = spec.temp_c
        self.beol_corner = spec.beol_corner
        self.derates = spec.derates
        self.si_enabled = spec.si_enabled
        self.parasitics = kernel._parasitics[ci]
        self.graph = _CornerGraph(kernel, ci)
        self.prop = _LazyProp(kernel, ci)
        self.si_delta = kernel.si_delta_for(ci)
        self.algebra = SCALAR  # kernel batches are always scalar
        self.report: Optional[TimingReport] = None

    def run(self) -> TimingReport:
        raise TimingError(
            "CornerView state comes from CompiledKernel.run(); "
            "re-running a view is not supported"
        )


# ---------------------------------------------------------------------- #
# the kernel


class CompiledKernel:
    """Flat-array form of one (design, constraints, corner batch).

    Compilation happens in ``__init__``; :meth:`run` executes the
    batched forward pass; :meth:`report`/:meth:`reports` produce
    per-corner :class:`TimingReport` objects bit-compatible with the
    reference engine; :meth:`view` exposes a full STA-compatible
    per-corner view for path-level analyses.
    """

    def __init__(
        self,
        design: Design,
        constraints: Constraints,
        corners: List[CornerSpec],
        stack: Optional[BeolStack] = None,
        graph: Optional[TimingGraph] = None,
        parasitics: Optional[ParasiticExtractor] = None,
    ):
        if not corners:
            raise KernelCompileError("a kernel batch needs at least one corner")
        self.design = design
        self.constraints = constraints
        self.corners = corners
        self.stack = stack or default_stack()
        self._ran = False
        #: Vectorized batch steps executed by :meth:`run` (one per
        #: non-empty level x edge-kind) — the denominator of the
        #: deterministic work ratio.
        self.batch_ops = 0
        #: Vectorized NLDM table evaluations (4 per cell batch step).
        self.batch_lookups = 0

        t0 = time.perf_counter()
        with obs_tracing.span(
            "kernel_compile", design=design.name, corners=len(corners),
        ) as span:
            if graph is None:
                design.bind(corners[0].library)
                graph = TimingGraph(design, corners[0].library, constraints)
            self.graph = graph
            self._compile(parasitics)
            span.set(pins=len(self.pins), levels=self.n_levels,
                     net_expansions=self.n_net_expansions,
                     cell_expansions=self.n_cell_expansions)
        self.compile_s = time.perf_counter() - t0
        obs_metrics.observe("kernel.compile_s", self.compile_s)

        # Per-corner caches filled after run().
        self._arr_late = None
        self._arr_early = None
        self._slew_late = None
        self._slew_early = None
        self._cand_late = None
        self._cand_early = None
        self._pred_rank_cache: Dict[Tuple[int, str], np.ndarray] = {}
        self._view_cache: Dict[int, CornerView] = {}
        self._loads_cache: Dict[int, Dict[PinRef, float]] = {}
        self._rebound_cache: Dict[int, Tuple[dict, dict]] = {}

    # ------------------------------------------------------------------ #
    # compilation

    def _compile(self, parasitics0: Optional[ParasiticExtractor]) -> None:
        graph = self.graph
        design = self.design
        n_corners = len(self.corners)

        # --- pin/node index maps -------------------------------------- #
        self.pins: List[PinRef] = list(graph.topo_order)
        self.pin_index: Dict[PinRef, int] = {
            ref: i for i, ref in enumerate(self.pins)
        }
        # node = pin_index * 2 + direction (0 = rise, 1 = fall)
        self.n_nodes = 2 * len(self.pins)
        self._node_index: Dict[Tuple[PinRef, str], int] = {}
        for i, ref in enumerate(self.pins):
            self._node_index[(ref, "rise")] = 2 * i
            self._node_index[(ref, "fall")] = 2 * i + 1

        # --- levelization (longest-path levels over the pin graph) ---- #
        level: Dict[PinRef, int] = {}
        for ref in self.pins:
            best = 0
            for edge in graph.in_edges.get(ref, []):
                src = edge.driver if isinstance(edge, NetEdge) else edge.src
                best = max(best, level[src] + 1)
            level[ref] = best
        self.pin_level = level
        self.n_levels = (max(level.values()) + 1) if level else 0

        # --- expanded edges, in reference offer order ------------------ #
        # Global expansion order = topo pins x in-edge list order x the
        # reference engine's per-edge direction loops; candidate ranks in
        # this order reproduce the reference "strict >" first-setter
        # backpointers.
        e_src: List[int] = []
        e_dst: List[int] = []
        e_src_dir: List[int] = []
        e_edge: List[object] = []       # NetEdge | CellEdge per expansion
        e_level: List[int] = []
        net_rows: List[int] = []        # expansion ids that are net edges
        cell_rows: List[int] = []       # expansion ids that are cell edges
        net_edge_of: List[int] = []     # per net row: unique net-edge id
        cell_out_dir: List[str] = []    # per cell row
        cell_skew: List[float] = []
        cell_is_clock: List[bool] = []
        cell_depth: List[int] = []
        unique_net_edges: List[NetEdge] = []
        unique_cell_edges: List[CellEdge] = []
        cell_edge_of: List[int] = []    # per cell row: unique cell-edge id

        def node_of(ref: PinRef, d: int) -> int:
            return 2 * self.pin_index[ref] + d

        for ref in self.pins:
            lvl = level[ref]
            for edge in graph.in_edges.get(ref, []):
                if isinstance(edge, NetEdge):
                    ne = len(unique_net_edges)
                    unique_net_edges.append(edge)
                    for d in (0, 1):
                        e = len(e_src)
                        e_src.append(node_of(edge.driver, d))
                        e_dst.append(node_of(edge.sink, d))
                        e_src_dir.append(d)
                        e_edge.append(edge)
                        e_level.append(lvl)
                        net_rows.append(e)
                        net_edge_of.append(ne)
                else:
                    arc = edge.arc
                    ce = len(unique_cell_edges)
                    unique_cell_edges.append(edge)
                    skew = 0.0
                    if arc.timing_type is TimingType.RISING_EDGE:
                        skew = self.constraints.clock_latency.get(
                            edge.instance, 0.0)
                    is_clock = edge.src in graph.clock_pins
                    depth = graph.data_depth.get(edge.dst, 1)
                    for in_d, in_dir in enumerate(DIRECTIONS):
                        for out_dir in arc.sense.output_directions(in_dir):
                            if out_dir not in arc.timing:
                                continue
                            e = len(e_src)
                            e_src.append(node_of(edge.src, in_d))
                            e_dst.append(node_of(edge.dst, out_dir == "fall"))
                            e_src_dir.append(in_d)
                            e_edge.append(edge)
                            e_level.append(lvl)
                            cell_rows.append(e)
                            cell_edge_of.append(ce)
                            cell_out_dir.append(out_dir)
                            cell_skew.append(skew)
                            cell_is_clock.append(is_clock)
                            cell_depth.append(depth)

        n_exp = len(e_src)
        self.n_net_expansions = len(net_rows)
        self.n_cell_expansions = len(cell_rows)
        self.e_src = np.asarray(e_src, dtype=np.int64)
        self.e_dst = np.asarray(e_dst, dtype=np.int64)
        self.e_src_dir = np.asarray(e_src_dir, dtype=np.int64)
        self.e_edge = e_edge
        self._net_rows = np.asarray(net_rows, dtype=np.int64)
        self._cell_rows = np.asarray(cell_rows, dtype=np.int64)
        self._cell_edge_of = np.asarray(cell_edge_of, dtype=np.int64)
        self._unique_net_edges = unique_net_edges
        self._unique_cell_edges = unique_cell_edges

        # Per-level schedule: net batch then cell batch, like the
        # reference's in-edge interleave (order across kinds within a
        # level is irrelevant: all sources live in earlier levels).
        lvl_net: List[List[int]] = [[] for _ in range(self.n_levels)]
        lvl_cell: List[List[int]] = [[] for _ in range(self.n_levels)]
        for e in net_rows:
            lvl_net[e_level[e]].append(e)
        for e in cell_rows:
            lvl_cell[e_level[e]].append(e)
        self._schedule: List[Tuple[np.ndarray, np.ndarray]] = [
            (np.asarray(lvl_net[i], dtype=np.int64),
             np.asarray(lvl_cell[i], dtype=np.int64))
            for i in range(self.n_levels)
        ]

        # --- per-corner arc congruence maps ---------------------------- #
        self._arc_map_cache: Dict[Tuple[int, str], Dict] = {}
        # Corner-swapped CellEdge cache, keyed (corner, id(base edge)) —
        # shared by pred backpointers and rebound adjacency so the same
        # swapped object serves both (PBA walks rely on that).
        self._edge_swap_cache: Dict[int, Dict[int, CellEdge]] = {}
        self._corner_checks: List[List[TimingCheck]] = []
        for ci in range(n_corners):
            if ci == 0:
                self._corner_checks.append(list(graph.checks))
                continue
            checks_c = []
            for check in graph.checks:
                cell_name = design.instance(check.instance).cell_name
                arc = self._corner_arc(ci, cell_name, check.arc)
                checks_c.append(TimingCheck(
                    instance=check.instance, data_pin=check.data_pin,
                    clock_pin=check.clock_pin, arc=arc,
                ))
            self._corner_checks.append(checks_c)

        # --- stacked NLDM table tensors (corner-leading axis) ---------- #
        # tid registry: (cell_name, related, pin, timing_type, out_dir,
        # which) -> tid; the same cell type shares tables across
        # instances, so T is small even for large designs.
        tid_of: Dict[Tuple, int] = {}
        tid_tables: List[List] = []  # per tid: per-corner LookupTable2D
        cell_dtid: List[int] = []
        cell_stid: List[int] = []

        def corner_tables(cell_name: str, arc0: TimingArc, out_dir: str):
            tabs_d, tabs_s = [], []
            for ci, spec in enumerate(self.corners):
                arc = arc0 if ci == 0 else \
                    self._corner_arc(ci, cell_name, arc0)
                timing = arc.timing.get(out_dir)
                if timing is None:
                    raise KernelCompileError(
                        f"corner {spec.name!r}: arc "
                        f"{arc0.related_pin}->{arc0.pin} of {cell_name} "
                        f"lacks timing for {out_dir!r}"
                    )
                tabs_d.append(timing.delay)
                tabs_s.append(timing.slew)
            return tabs_d, tabs_s

        for row, e in enumerate(cell_rows):
            edge = e_edge[e]
            cell_name = design.instance(edge.instance).cell_name
            out_dir = cell_out_dir[row]
            key_d = (cell_name, edge.arc.related_pin, edge.arc.pin,
                     edge.arc.timing_type, out_dir, "delay")
            key_s = key_d[:-1] + ("slew",)
            if key_d not in tid_of:
                tabs_d, tabs_s = corner_tables(cell_name, edge.arc, out_dir)
                tid_of[key_d] = len(tid_tables)
                tid_tables.append(tabs_d)
                tid_of[key_s] = len(tid_tables)
                tid_tables.append(tabs_s)
            cell_dtid.append(tid_of[key_d])
            cell_stid.append(tid_of[key_s])

        n_tables = len(tid_tables)
        s_max = max((t[0].index_1.size for t in tid_tables), default=2)
        l_max = max((t[0].index_2.size for t in tid_tables), default=2)
        self._grid1 = np.full((n_corners, n_tables, s_max), _INF)
        self._grid2 = np.full((n_corners, n_tables, l_max), _INF)
        self._values = np.zeros((n_corners, n_tables, s_max, l_max))
        self._clamp1 = np.zeros(n_tables, dtype=np.int64)
        self._clamp2 = np.zeros(n_tables, dtype=np.int64)
        for t, tabs in enumerate(tid_tables):
            shape = tabs[0].values.shape
            self._clamp1[t] = shape[0] - 2
            self._clamp2[t] = shape[1] - 2
            for ci, table in enumerate(tabs):
                if table.values.shape != shape:
                    raise KernelCompileError(
                        f"corner {self.corners[ci].name!r}: table shape "
                        f"{table.values.shape} differs from corner 0's "
                        f"{shape}; cannot stack"
                    )
                self._grid1[ci, t, :shape[0]] = table.index_1
                self._grid2[ci, t, :shape[1]] = table.index_2
                self._values[ci, t, :shape[0], :shape[1]] = table.values
        self.n_tables = n_tables

        # Global (n_exp,) arrays; only cell rows are meaningful.
        dtid = np.zeros(n_exp, dtype=np.int64)
        stid = np.zeros(n_exp, dtype=np.int64)
        dtid[self._cell_rows] = np.asarray(cell_dtid, dtype=np.int64)
        stid[self._cell_rows] = np.asarray(cell_stid, dtype=np.int64)
        self._dtid = dtid
        self._stid = stid
        skew_arr = np.zeros(n_exp)
        skew_arr[self._cell_rows] = np.asarray(cell_skew)
        self._skew = skew_arr

        # --- per-corner static arrays ---------------------------------- #
        self._parasitics: List[ParasiticExtractor] = []
        self._si_deltas: List[Optional[Dict[str, float]]] = []
        self._wire_base = np.zeros((n_exp, n_corners))
        self._wire_delta = np.zeros((n_exp, n_corners))
        self._wire_degrade = np.zeros((n_exp, n_corners))
        self._wire_early = np.zeros((n_exp, n_corners))
        self._load = np.zeros((n_exp, n_corners))
        self._uload = np.zeros((len(unique_cell_edges), n_corners))
        self._factor_late = np.ones((n_exp, n_corners))
        self._factor_early = np.ones((n_exp, n_corners))
        self._slew_limit = np.zeros((len(self.pins), n_corners))

        cell_rows_arr = self._cell_rows
        is_clock_arr = np.asarray(cell_is_clock, dtype=bool)
        for ci, spec in enumerate(self.corners):
            lib = spec.library
            self._check_cell_congruence(ci)
            if ci == 0 and parasitics0 is not None:
                para = parasitics0
            else:
                para = ParasiticExtractor(
                    design, lib, self.stack, spec.beol_corner,
                    temp_c=spec.temp_c,
                )
            self._parasitics.append(para)

            si_delta: Dict[str, float] = {}
            if spec.si_enabled:
                from repro.sta.si import coupling_deltas

                si_delta = coupling_deltas(_SiGraphView(design, lib), para)
                self._si_deltas.append(si_delta)
            else:
                self._si_deltas.append(None)

            # net-edge statics (per unique net edge, broadcast to the
            # rise/fall expansion rows)
            for ne, edge in enumerate(unique_net_edges):
                base, delta, degrade = net_edge_terms(para, edge, si_delta,
                                                      SCALAR)
                early = max(base - delta, 0.0)
                for d in (0, 1):
                    e = self._net_rows[2 * ne + d]
                    self._wire_base[e, ci] = base
                    self._wire_delta[e, ci] = delta
                    self._wire_degrade[e, ci] = degrade
                    self._wire_early[e, ci] = early

            # cell-edge loads (memoized per driven net; recorded per
            # unique edge, like the reference, so loads exist even for
            # arcs with no usable output direction)
            load_by_net: Dict[str, float] = {}
            for ce, edge in enumerate(unique_cell_edges):
                inst = design.instance(edge.instance)
                net_name = inst.net_of(edge.arc.pin)
                load = load_by_net.get(net_name)
                if load is None:
                    np_ = para.extract(net_name)
                    load = np_.driver_load(para.pin_caps_total(net_name))
                    load_by_net[net_name] = load
                self._uload[ce, ci] = load
            if cell_rows_arr.size:
                self._load[cell_rows_arr, ci] = \
                    self._uload[self._cell_edge_of, ci]

            # derate factors
            d = spec.derates
            flat_only = (d.aocv is None and not d.instance_late
                         and not d.instance_early)
            if flat_only:
                self._factor_late[cell_rows_arr, ci] = np.where(
                    is_clock_arr, d.clock_late, d.data_late)
                self._factor_early[cell_rows_arr, ci] = np.where(
                    is_clock_arr, d.clock_early, d.data_early)
            else:
                for row, e in enumerate(cell_rows_arr):
                    edge = e_edge[e]
                    self._factor_late[e, ci] = d.factor(
                        cell_is_clock[row], "late", cell_depth[row],
                        edge.instance)
                    self._factor_early[e, ci] = d.factor(
                        cell_is_clock[row], "early", cell_depth[row],
                        edge.instance)

            # max-transition limits per pin (port pins get +inf: exempt)
            default = self.constraints.max_transition or \
                lib.default_max_transition
            limit_of: Dict[Tuple[str, str], float] = {}
            for i, ref in enumerate(self.pins):
                if ref.is_port:
                    self._slew_limit[i, ci] = _INF
                    continue
                key = (design.instance(ref.instance).cell_name, ref.pin)
                limit = limit_of.get(key)
                if limit is None:
                    pin = lib.cell(key[0]).pin(key[1])
                    limit = pin.max_transition or default
                    limit_of[key] = limit
                self._slew_limit[i, ci] = limit

        # --- seeds (corner-independent; the reference's own) ---------- #
        self._seeds: Dict[int, Arrival] = {}
        for key, arr in seed_arrivals(graph).arrivals.items():
            node = self._node_index.get(key)
            if node is not None:
                self._seeds[node] = arr

    def _check_cell_congruence(self, ci: int) -> None:
        """Every instantiated cell must exist in the corner library."""
        if ci == 0:
            return
        lib = self.corners[ci].library
        missing = set()
        for inst in self.design.instances.values():
            if inst.cell_name in missing or inst.cell_name in lib.cells:
                continue
            missing.add(inst.cell_name)
        if missing:
            raise KernelCompileError(
                f"corner {self.corners[ci].name!r} library lacks cell(s) "
                f"{sorted(missing)}"
            )

    def _corner_arc(self, ci: int, cell_name: str,
                    arc0: TimingArc) -> TimingArc:
        """The corner-``ci`` arc congruent to ``arc0`` (by related pin,
        pin and timing type), or :class:`KernelCompileError`."""
        if ci == 0:
            return arc0
        cache_key = (ci, cell_name)
        arc_map = self._arc_map_cache.get(cache_key)
        if arc_map is None:
            lib = self.corners[ci].library
            try:
                cell = lib.cell(cell_name)
            except LibraryError:
                raise KernelCompileError(
                    f"corner {self.corners[ci].name!r} library lacks "
                    f"cell {cell_name!r}"
                ) from None
            arc_map = {
                (a.related_pin, a.pin, a.timing_type): a for a in cell.arcs
            }
            self._arc_map_cache[cache_key] = arc_map
        arc = arc_map.get((arc0.related_pin, arc0.pin, arc0.timing_type))
        if arc is None:
            raise KernelCompileError(
                f"corner {self.corners[ci].name!r}: cell {cell_name!r} "
                f"lacks arc {arc0.related_pin}->{arc0.pin} "
                f"({arc0.timing_type.value})"
            )
        if arc.sense is not arc0.sense:
            raise KernelCompileError(
                f"corner {self.corners[ci].name!r}: arc "
                f"{arc0.related_pin}->{arc0.pin} of {cell_name!r} changes "
                f"sense ({arc0.sense.value} vs {arc.sense.value})"
            )
        return arc

    # ------------------------------------------------------------------ #
    # the batched forward pass

    def run(self) -> None:
        """Propagate every corner simultaneously."""
        n_corners = len(self.corners)
        with obs_tracing.span(
            "kernel_batch", design=self.design.name, corners=n_corners,
            levels=self.n_levels,
        ):
            self._run_batch()
        obs_metrics.observe("kernel.batch_corners", n_corners)
        obs_metrics.inc("kernel.batches")
        self._ran = True

    def _run_batch(self) -> None:
        C = len(self.corners)
        N = self.n_nodes
        E = len(self.e_src)
        arr_l = np.full((N, C), -_INF)
        arr_e = np.full((N, C), _INF)
        slew_l = np.zeros((N, C))
        slew_e = np.full((N, C), _INF)
        cand_l = np.full((E, C), -_INF)
        cand_e = np.full((E, C), _INF)
        self.batch_ops = 0
        self.batch_lookups = 0

        for node, arr in self._seeds.items():
            arr_l[node, :] = arr.late
            arr_e[node, :] = arr.early
            slew_l[node, :] = arr.slew_late
            slew_e[node, :] = arr.slew_early

        src, dst = self.e_src, self.e_dst
        for net_ids, cell_ids in self._schedule:
            if net_ids.size:
                e = net_ids
                s, d = src[e], dst[e]
                al = arr_l[s]
                has = al > -_INF
                cl = np.where(has, (al + self._wire_base[e])
                              + self._wire_delta[e], -_INF)
                sl = np.where(has, slew_l[s] + self._wire_degrade[e], 0.0)
                ae = arr_e[s]
                me = has & (ae < _INF)
                ce = np.where(me, ae + self._wire_early[e], _INF)
                se_src = slew_e[s]
                se = np.where(
                    me,
                    np.where(np.isfinite(se_src), se_src, 0.0)
                    + self._wire_degrade[e],
                    _INF,
                )
                cand_l[e] = cl
                cand_e[e] = ce
                np.maximum.at(arr_l, d, cl)
                np.maximum.at(slew_l, d, sl)
                np.minimum.at(arr_e, d, ce)
                np.minimum.at(slew_e, d, se)
                self.batch_ops += 1
            if cell_ids.size:
                e = cell_ids
                s, d = src[e], dst[e]
                al = arr_l[s]
                has = al > -_INF
                in_sl = slew_l[s]
                in_se = slew_e[s]
                in_se = np.where(np.isfinite(in_se), in_se, 0.0)
                load = self._load[e]
                d_l = self._bilinear(self._dtid[e], in_sl, load)
                s_l = self._bilinear(self._stid[e], in_sl, load)
                d_e = self._bilinear(self._dtid[e], in_se, load)
                s_e = self._bilinear(self._stid[e], in_se, load)
                skew = self._skew[e][:, None]
                cl = np.where(has, (al + skew) + d_l * self._factor_late[e],
                              -_INF)
                ae = arr_e[s]
                ae = np.where(np.isfinite(ae), ae, 0.0)
                ce = np.where(has, (ae + skew) + d_e * self._factor_early[e],
                              _INF)
                sl = np.where(has, s_l, 0.0)
                se = np.where(has, s_e, _INF)
                cand_l[e] = cl
                cand_e[e] = ce
                np.maximum.at(arr_l, d, cl)
                np.maximum.at(slew_l, d, sl)
                np.minimum.at(arr_e, d, ce)
                np.minimum.at(slew_e, d, se)
                self.batch_ops += 1

        self._arr_late = arr_l
        self._arr_early = arr_e
        self._slew_late = slew_l
        self._slew_early = slew_e
        self._cand_late = cand_l
        self._cand_early = cand_e
        self._pred_rank_cache.clear()
        self._view_cache.clear()
        self._loads_cache.clear()

    def _bilinear(self, tid: np.ndarray, x1: np.ndarray,
                  x2: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`LookupTable2D.lookup` over (edge, corner).

        Replicates the scalar implementation operation-for-operation:
        searchsorted-right segment selection with edge clamping, then
        the same left-associated bilinear expression.
        """
        C = len(self.corners)
        cidx = np.arange(C)[None, :]
        t = tid[:, None]
        g1 = self._grid1[cidx, t]          # (E, C, S)
        g2 = self._grid2[cidx, t]          # (E, C, L)
        i = (g1 <= x1[..., None]).sum(axis=-1) - 1
        i = np.clip(i, 0, self._clamp1[tid][:, None])
        j = (g2 <= x2[..., None]).sum(axis=-1) - 1
        j = np.clip(j, 0, self._clamp2[tid][:, None])
        x1a = np.take_along_axis(g1, i[..., None], -1)[..., 0]
        x1b = np.take_along_axis(g1, (i + 1)[..., None], -1)[..., 0]
        x2a = np.take_along_axis(g2, j[..., None], -1)[..., 0]
        x2b = np.take_along_axis(g2, (j + 1)[..., None], -1)[..., 0]
        u = (x1 - x1a) / (x1b - x1a)
        v = (x2 - x2a) / (x2b - x2a)
        V = self._values
        q11 = V[cidx, t, i, j]
        q21 = V[cidx, t, i + 1, j]
        q12 = V[cidx, t, i, j + 1]
        q22 = V[cidx, t, i + 1, j + 1]
        self.batch_lookups += 1
        return (q11 * (1 - u) * (1 - v)
                + q21 * u * (1 - v)
                + q12 * (1 - u) * v
                + q22 * u * v)

    # ------------------------------------------------------------------ #
    # result materialization

    def _require_run(self) -> None:
        if not self._ran:
            raise TimingError("call CompiledKernel.run() first")

    def si_delta_for(self, ci: int) -> Optional[Dict[str, float]]:
        """Per-net SI deltas of corner ``ci`` (None when SI is off),
        matching what a reference run would leave on ``sta.si_delta``."""
        delta = self._si_deltas[ci]
        return dict(delta) if delta is not None else None

    def _pred_ranks(self, ci: int, mode: str) -> np.ndarray:
        """Per node: global rank of the first candidate equal to the
        final arrival — exactly the reference first-setter backpointer."""
        key = (ci, mode)
        ranks = self._pred_rank_cache.get(key)
        if ranks is not None:
            return ranks
        if mode == "late":
            match = self._cand_late[:, ci] == self._arr_late[self.e_dst, ci]
        else:
            match = self._cand_early[:, ci] == self._arr_early[self.e_dst, ci]
        ranks = np.full(self.n_nodes, _NO_PRED, dtype=np.int64)
        sel = np.nonzero(match)[0]
        np.minimum.at(ranks, self.e_dst[sel], sel)
        self._pred_rank_cache[key] = ranks
        return ranks

    def _pred_of(self, ci: int, node: int, mode: str):
        if mode == "late":
            if not self._arr_late[node, ci] > -_INF:
                return None
        else:
            if not self._arr_early[node, ci] < _INF:
                return None
        rank = self._pred_ranks(ci, mode)[node]
        if rank == _NO_PRED:
            return None
        edge = self._corner_edge(ci, self.e_edge[rank])
        return (edge, DIRECTIONS[self.e_src_dir[rank]])

    def _corner_edge(self, ci: int, edge):
        """``edge`` with its arc rebound to corner ``ci``'s library (net
        edges and corner 0 pass through unchanged)."""
        if ci == 0 or isinstance(edge, NetEdge):
            return edge
        swapped = self._edge_swap_cache.setdefault(ci, {})
        out = swapped.get(id(edge))
        if out is None:
            cell_name = self.design.instance(edge.instance).cell_name
            out = CellEdge(
                instance=edge.instance,
                arc=self._corner_arc(ci, cell_name, edge.arc),
            )
            swapped[id(edge)] = out
        return out

    def _make_arrival(self, ci: int, ref: PinRef, direction: str) -> Arrival:
        node = self._node_index.get((ref, direction))
        if node is None:
            return Arrival()
        return self._arrival_at(ci, node)

    def _arrival_at(self, ci: int, node: int) -> Arrival:
        self._require_run()
        late = float(self._arr_late[node, ci])
        if not late > -_INF:
            return Arrival()
        early = float(self._arr_early[node, ci])
        slew_early = float(self._slew_early[node, ci])
        return Arrival(
            late=late,
            early=early,
            slew_late=float(self._slew_late[node, ci]),
            slew_early=slew_early if slew_early < _INF else 0.0,
            pred_late=self._pred_of(ci, node, "late"),
            pred_early=self._pred_of(ci, node, "early"),
        )

    def _loads_dict(self, ci: int) -> Dict[PinRef, float]:
        loads = self._loads_cache.get(ci)
        if loads is None:
            loads = {}
            for ce, edge in enumerate(self._unique_cell_edges):
                loads[edge.dst] = float(self._uload[ce, ci])
            self._loads_cache[ci] = loads
        return dict(loads)

    def materialize_prop(self, ci: int) -> PropagationResult:
        """A fully-materialized, mutation-safe reference
        :class:`PropagationResult` for corner ``ci`` (the incremental
        timer's cone updates pop and rebuild entries in place)."""
        self._require_run()
        prop = PropagationResult()
        reached = np.nonzero(self._arr_late[:, ci] > -_INF)[0]
        # Warm both pred-rank caches once (vectorized) so the per-node
        # loop below is dictionary work only.
        self._pred_ranks(ci, "late")
        self._pred_ranks(ci, "early")
        pins = self.pins
        for node in reached:
            ref = pins[node >> 1]
            direction = DIRECTIONS[node & 1]
            prop.arrivals[(ref, direction)] = self._arrival_at(ci, int(node))
        prop.loads = self._loads_dict(ci)
        return prop

    # ------------------------------------------------------------------ #
    # reports and views

    def view(self, ci: int) -> CornerView:
        """An STA-compatible view of corner ``ci`` (lazy, read-only)."""
        self._require_run()
        view = self._view_cache.get(ci)
        if view is None:
            view = CornerView(self, ci)
            self._view_cache[ci] = view
        return view

    def report(self, ci: int) -> TimingReport:
        """The corner's timing report, bit-compatible with
        :meth:`STA.run` (scenario field = library name, as there)."""
        view = self.view(ci)
        report = view._report(slew_violations=self._slew_violations(ci))
        view.report = report
        return report

    def reports(self) -> List[TimingReport]:
        return [self.report(ci) for ci in range(len(self.corners))]

    def _slew_violations(self, ci: int) -> List[SlewViolation]:
        """Vectorized max-transition sweep, equal to the reference
        per-pin walk (worst reached slew vs per-pin limit)."""
        self._require_run()
        sl = self._slew_late[:, ci]
        reached = self._arr_late[:, ci] > -_INF
        by_dir = np.where(reached, sl, 0.0).reshape(-1, 2)
        worst = np.maximum(by_dir[:, 0], by_dir[:, 1])
        over = np.nonzero(worst > self._slew_limit[:, ci])[0]
        out = []
        for i in over:
            out.append(SlewViolation(
                ref=self.pins[i], slew=float(worst[i]),
                limit=float(self._slew_limit[i, ci]),
            ))
        return out

    def _rebound_adjacency(self, ci: int) -> Tuple[dict, dict]:
        """Adjacency dicts whose CellEdges carry corner-``ci`` arcs."""
        if ci == 0:
            return self.graph.in_edges, self.graph.out_edges
        cached = self._rebound_cache.get(ci)
        if cached is not None:
            return cached
        in_edges = {ref: [self._corner_edge(ci, e) for e in edges]
                    for ref, edges in self.graph.in_edges.items()}
        out_edges = {ref: [self._corner_edge(ci, e) for e in edges]
                     for ref, edges in self.graph.out_edges.items()}
        self._rebound_cache[ci] = (in_edges, out_edges)
        return in_edges, out_edges

    # ------------------------------------------------------------------ #
    # work accounting

    def stats(self) -> Dict[str, float]:
        """Deterministic work statistics for benchmarks and tests."""
        C = len(self.corners)
        scalar_visits = C * (self.n_net_expansions + self.n_cell_expansions)
        scalar_lookups = 4 * C * self.n_cell_expansions
        return {
            "corners": C,
            "pins": len(self.pins),
            "levels": self.n_levels,
            "net_expansions": self.n_net_expansions,
            "cell_expansions": self.n_cell_expansions,
            "tables": self.n_tables,
            "compile_s": self.compile_s,
            "batch_ops": self.batch_ops,
            "batch_lookups": self.batch_lookups,
            "scalar_edge_visits": scalar_visits,
            "scalar_lookups": scalar_lookups,
        }

    def work_ratio(self) -> float:
        """Reference interpreter edge-visits per vectorized batch step.

        The deterministic analogue of multi-corner throughput: the
        reference engine executes one Python edge-visit per expansion
        per corner, the kernel one numpy batch per (level, edge kind).
        Independent of machine load, unlike wall-clock.
        """
        self._require_run()
        C = len(self.corners)
        scalar = C * (self.n_net_expansions + self.n_cell_expansions)
        return scalar / max(self.batch_ops, 1)
