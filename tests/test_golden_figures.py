"""Golden-file regression tests for cheap benchmark figures.

The benchmark harness (``pytest benchmarks/``) regenerates every figure
and persists its table under ``benchmarks/results/``. Those tables are
committed, which makes them golden files: this suite re-runs the cheap
figures (fig01 closure loop, fig04 MIS/SIS, sec13 GBA-vs-PBA, sec23
corner explosion) inside tier-1 and diffs the key numbers against the
recorded tables within tolerance — so a change that silently drifts a
figure fails fast, not at the next full benchmark pass.

Volatile lines (wall-clock runtimes) are deliberately not compared.
"""

import pathlib
import re

import pytest

from repro.liberty import make_library

RESULTS_DIR = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"


def golden(name: str) -> str:
    path = RESULTS_DIR / f"{name}.txt"
    if not path.exists():
        pytest.skip(f"no golden file {path}; run the benchmarks first")
    return path.read_text()


@pytest.fixture(scope="module")
def lib():
    return make_library()


def test_sec23_corner_explosion_counts_match_golden():
    from repro.beol.corners import corner_explosion_count
    from repro.beol.stack import default_stack

    text = golden("sec23_corner_explosion")
    recorded = {
        m.group(1): int(m.group(2).replace(",", ""))
        for m in re.finditer(r"^(\w+)\s+([\d,]+)\s*$", text, re.M)
    }
    assert recorded, "golden file held no counts"
    counts = corner_explosion_count(n_modes=6, n_voltage_domains=4,
                                    stack=default_stack())
    # Counting arithmetic is exact: any drift is a real behavior change.
    for key, value in recorded.items():
        assert counts[key] == value, f"{key} drifted"


def test_sec13_gba_vs_pba_matches_golden(lib):
    from repro.netlist.generators import random_logic
    from repro.sta import STA, Constraints
    from repro.sta.pba import gba_vs_pba

    text = golden("sec13_gba_vs_pba")
    recorded_rows = {
        m.group(1): (float(m.group(2)), float(m.group(3)))
        for m in re.finditer(
            r"^(\S+/D)\s+(-?[\d.]+)\s+(-?[\d.]+)\s+(-?[\d.]+)\s+\d+\s*$",
            text, re.M,
        )
    }
    recorded_mean = float(
        re.search(r"mean pessimism recovered: (-?[\d.]+) ps", text).group(1)
    )
    assert recorded_rows, "golden file held no endpoint rows"

    design = random_logic(n_gates=400, n_levels=10, seed=17)
    sta = STA(design, lib, Constraints.single_clock(520.0))
    sta.report = sta.run()
    results = gba_vs_pba(sta, sta.report, n_endpoints=12, max_paths=64)
    by_endpoint = {str(r.endpoint): r for r in results}
    for endpoint, (gba, pba) in recorded_rows.items():
        row = by_endpoint.get(endpoint)
        assert row is not None, f"endpoint {endpoint} vanished"
        assert row.gba_slack == pytest.approx(gba, abs=0.05)
        assert row.pba_slack == pytest.approx(pba, abs=0.05)
    mean = sum(r.pessimism_recovered for r in results) / len(results)
    assert mean == pytest.approx(recorded_mean, abs=0.05)


def test_fig01_closure_trajectory_matches_golden(lib):
    from repro.core.closure import ClosureConfig, ClosureEngine
    from repro.netlist.generators import random_logic
    from repro.sta import Constraints

    text = golden("fig01_closure_loop")
    recorded = [
        (int(m.group(1)), float(m.group(2)), float(m.group(3)))
        for m in re.finditer(
            r"^\s*(\d+)\s+(-?[\d.]+)\s+(-?[\d.]+)\s+\d+\s+\d+\s+\d+\s+\d+(?:\s+\S.*)?$",
            text, re.M,
        )
    ]
    recorded_final = float(
        re.search(r"final WNS (-?[\d.]+) ps", text).group(1)
    )
    assert recorded, "golden file held no iteration rows"

    design = random_logic(n_gates=300, n_levels=10, seed=3)
    constraints = Constraints.single_clock(520.0)
    constraints.input_delays = {f"in{i}": 60.0 for i in range(32)}
    engine = ClosureEngine(design, lib, constraints)
    result = engine.run(ClosureConfig(max_iterations=8, budget_per_fix=24))

    assert result.converged
    wns = result.trajectory("wns_setup")
    tns = result.trajectory("tns_setup")
    assert len(wns) == len(recorded)
    for (_, rec_wns, rec_tns), got_wns, got_tns in zip(recorded, wns, tns):
        assert got_wns == pytest.approx(rec_wns, abs=0.5)
        assert got_tns == pytest.approx(rec_tns, abs=5.0)
    assert wns[-1] == pytest.approx(recorded_final, abs=0.5)


def test_fig04_mis_sis_matches_golden():
    from repro.mis.analysis import fig4_study

    text = golden("fig04_mis_sis")
    recorded = {
        (float(m.group(1)), m.group(2)):
            (float(m.group(3)), float(m.group(4)), float(m.group(5)))
        for m in re.finditer(
            r"^\s*([\d.]+)\s+(rise|fall)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)",
            text, re.M,
        )
    }
    assert len(recorded) == 4, "golden file held no MIS/SIS rows"

    rows = fig4_study(
        voltages=[0.8, 0.64],
        offsets=[-30.0, -15.0, -5.0, 0.0, 5.0, 15.0, 30.0],
        dt=0.5,
    )
    for r in rows:
        key = (round(r.vdd, 2), r.input_direction)
        assert key in recorded, f"row {key} vanished"
        sis, mis, ratio = recorded[key]
        assert r.sis_delay == pytest.approx(sis, rel=0.02, abs=0.05)
        assert r.mis_delay == pytest.approx(mis, rel=0.02, abs=0.05)
        assert r.ratio == pytest.approx(ratio, abs=0.03)
