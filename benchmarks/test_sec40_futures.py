"""Section 4 — the paper's "futures", implemented and measured.

Paper: (1) margin recovery gains value; (2) BEOL/MOL first-class
citizenship ("statistical SPEF or similar will be revived"); (3) LVF
replaces relative-margin OCV; (4) AVS/PVS adaptivity with monitor
circuits; (5) 3DIC cross-die analysis. Plus Comment 1's ECO tooling
(here: incremental timing).

Each future gets a measured row in this bench.
"""

import time

from conftest import once

from repro.aging.monitors import (
    design_dependent_ro,
    evaluate_tracking,
    generic_ro,
)
from repro.beol.stack import default_stack
from repro.core.threedic import (
    apply_tsv_parasitics,
    cross_die_corner_matrix,
    partition_by_y,
    worst_off_diagonal_penalty,
)
from repro.cts.tree import synthesize_clock_tree
from repro.liberty import LibraryCondition
from repro.netlist.generators import random_logic
from repro.netlist.transforms import swap_vt, upsize
from repro.parasitics.statistical import StatisticalAnnotator
from repro.sta import STA, Constraints, IncrementalTimer
from repro.sta.algebra import VariationModel
from repro.sta.ssta import run_ssta


def test_sec40_ssta_and_statistical_spef(benchmark, lib, record_table):
    """Future (3)(i)+(ii): SSTA with statistical interconnect."""

    def run():
        # Stretch the placement so nets are wire-heavy: BEOL variation
        # only matters when wires carry real delay (Section 2.3's point).
        design = random_logic(n_gates=200, n_levels=8, seed=11)
        for inst in design.instances.values():
            if inst.location is not None:
                inst.location = (inst.location[0] * 25.0, inst.location[1])
        constraints = Constraints.single_clock(2500.0)
        sta = STA(design, lib, constraints)
        sta.report = sta.run()
        annotator = StatisticalAnnotator(sta.parasitics, default_stack())
        # One die-wide source carrying 30% of each arc's sigma.
        model = VariationModel(n_sources=1, rho=0.3)
        base = run_ssta(design, lib, constraints, model=model)
        wired = run_ssta(design, lib, constraints, model=model,
                         wires=annotator)
        return sta, base, wired

    sta, base, wired = once(benchmark, run)
    worst = min(base.endpoints, key=lambda e: e.mean)
    ep = worst.endpoint
    wired_ep = next(e for e in wired.endpoints if e.endpoint == ep)
    lines = [
        "block-based SSTA (canonical forms, Clark max, LVF sigmas):",
        f"  worst endpoint {ep}:",
        f"    deterministic slack  "
        f"{sta.report.slack_of(ep, 'setup'):8.2f} ps",
        f"    SSTA mean / sigma    {worst.mean:8.2f} / "
        f"{worst.sigma:.2f} ps",
        f"    slack at 3 sigma     {worst.mean - 3.0 * worst.sigma:8.2f} ps",
        "",
        "statistical SPEF revival (wire sigmas from SADP patterning):",
        f"    FEOL-only sigma      {worst.sigma:8.3f} ps",
        f"    +BEOL wire sigma     {wired_ep.sigma:8.3f} ps",
    ]
    record_table("sec40_ssta_sspef", "\n".join(lines))
    assert wired_ep.sigma >= worst.sigma


def test_sec40_monitor_adaptivity(benchmark, lib, record_table):
    """Future (4): monitor-driven adaptivity — DDRO vs generic RO."""

    def run():
        import random as _random

        design = random_logic(n_gates=150, n_levels=8, seed=5)
        design.bind(lib)
        rng = _random.Random(1)
        for name in list(design.instances):
            inst = design.instances[name]
            if not lib.cell(inst.cell_name).is_sequential and \
                    rng.random() < 0.5:
                swap_vt(design, lib, name, "hvt")
        constraints = Constraints.single_clock(600.0)
        sta = STA(design, lib, constraints)
        sta.report = sta.run()
        conditions = [
            LibraryCondition(vdd=0.65),
            LibraryCondition(vdd=0.72, temp_c=125.0, process="ss"),
            LibraryCondition(vdd=0.9, temp_c=-30.0, process="ff"),
            LibraryCondition(vt_shift_aging=0.04, temp_c=105.0),
        ]
        ddro = design_dependent_ro(sta, sta.report)
        rows = {}
        for monitor in (generic_ro(), ddro):
            rows[monitor.name] = evaluate_tracking(
                monitor, design, constraints, conditions
            )
        return rows

    rows = once(benchmark, run)
    lines = [f"{'monitor':<22} {'mean err':>9} {'max err':>9}"]
    for name, tr in rows.items():
        lines.append(
            f"{name:<22} {tr.mean_tracking_error:9.4f} "
            f"{tr.max_tracking_error:9.4f}"
        )
    record_table("sec40_monitors", "\n".join(lines))
    generic = rows["generic_inv15_svt"]
    ddro = rows["ddro"]
    assert ddro.mean_tracking_error < 0.5 * generic.mean_tracking_error


def test_sec40_3dic_cross_die(benchmark, lib, record_table):
    """Future (5): variation-aware analysis across stacked dies."""

    def run():
        design = random_logic(n_gates=150, n_levels=8, seed=5)
        design.bind(lib)
        synthesize_clock_tree(design, lib)
        assignment = partition_by_y(design)
        n_tsv = apply_tsv_parasitics(design, assignment)
        constraints = Constraints.single_clock(560.0)
        constraints.input_delays = {f"in{i}": 60.0 for i in range(32)}
        matrix = cross_die_corner_matrix(design, lib, constraints,
                                         assignment)
        return n_tsv, matrix

    n_tsv, matrix = once(benchmark, run)
    lines = [f"cross-die nets (TSVs): {n_tsv}", "",
             f"{'corner':<18} {'setup WNS':>10} {'internal hold WNS':>18}"]
    for r in matrix:
        lines.append(
            f"{r.label:<18} {r.wns_setup:10.2f} {r.internal_wns_hold:18.2f}"
        )
    penalty = worst_off_diagonal_penalty(matrix, "hold")
    lines.append(f"\noff-diagonal (mismatched-die) hold penalty: "
                 f"{penalty:.2f} ps")
    record_table("sec40_3dic", "\n".join(lines))
    assert penalty > 0.0


def test_sec40_incremental_eco_turnaround(benchmark, lib, record_table):
    """Comment 1: ECO tooling — incremental timing vs full re-timing."""

    def run():
        design = random_logic(n_gates=600, n_levels=12, seed=9)
        constraints = Constraints.single_clock(560.0)
        constraints.input_delays = {f"in{i}": 60.0 for i in range(32)}
        sta = STA(design, lib, constraints)
        sta.report = sta.run()
        timer = IncrementalTimer(sta)
        worst = sta.report.worst("setup")
        path = sta.worst_path(worst)
        cells = [p.ref.instance for p in path.points
                 if p.kind == "cell" and not p.ref.is_port]
        # Three single-cell ECOs on the worst path's last cells, each
        # timed incrementally with its cone; then one full re-timing.
        updates = []
        for name in cells[-3:]:
            swap_vt(design, lib, name, "lvt") or upsize(design, lib, name)
            t0 = time.perf_counter()
            timer.update_cells([name])
            updates.append((time.perf_counter() - t0, timer.last_cone_size))
        t0 = time.perf_counter()
        full_report = STA(design, lib, constraints).run()
        full_time = time.perf_counter() - t0
        return (updates, full_time, len(sta.graph.topo_order),
                timer.sta.report.wns("setup"), full_report.wns("setup"))

    updates, full, pins, inc_wns, full_wns = once(benchmark, run)
    inc = sum(seconds for seconds, _ in updates) / len(updates)
    cone = sum(size for _, size in updates) / len(updates)
    lines = [f"design: {pins} pins"]
    for i, (seconds, size) in enumerate(updates, 1):
        lines.append(f"incremental ECO update {i}:    {seconds * 1e3:7.2f} ms "
                     f"(cone {size} pins)")
    lines += [
        f"mean incremental ECO update: {inc * 1e3:7.2f} ms "
        f"(mean cone {cone:.0f} pins)",
        f"full re-timing:              {full * 1e3:7.2f} ms",
        f"speedup: {full / inc:.1f}x",
        f"WNS agreement: incremental {inc_wns:.2f} vs full {full_wns:.2f}",
    ]
    record_table("sec40_incremental_eco", "\n".join(lines))
    assert abs(inc_wns - full_wns) < 0.01
    assert inc < full
