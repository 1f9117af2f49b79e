"""Section 2.4 — MinIA-aware gate sizing and placement ([24]).

Paper: [Kahng-Lee GLSVLSI'14] reduces minimum-implant-area violations by
up to 100% while satisfying timing/power constraints, vs contemporary
commercial P&R. Post-route Vt-swap is no longer placement-independent.

Reproduction: mixed-Vt placements at several swap intensities, the fixer
with and without a timing guard, fix rates and leakage/displacement cost.
"""

import random

from conftest import once

from repro.netlist.generators import random_logic
from repro.netlist.transforms import swap_vt
from repro.place.minia import find_minia_violations, fix_minia_violations
from repro.place.rows import Placement


def mixed_design(lib, seed, fraction):
    d = random_logic(n_gates=200, n_levels=8, seed=seed)
    d.bind(lib)
    rng = random.Random(seed)
    for name in list(d.instances):
        inst = d.instances[name]
        if not lib.cell(inst.cell_name).is_sequential and \
                rng.random() < fraction:
            swap_vt(d, lib, name, rng.choice(["lvt", "hvt"]))
    return d


def test_sec24_minia_fix_rates(benchmark, lib, record_table):
    def run():
        rows = []
        for fraction in (0.15, 0.30, 0.45):
            d = mixed_design(lib, seed=13, fraction=fraction)
            placement = Placement.from_design(d, lib)
            placement.abut_all()
            before = len(find_minia_violations(placement))
            report = fix_minia_violations(d, lib, placement)
            rows.append((fraction, before, report))
        return rows

    rows = once(benchmark, run)
    lines = [
        f"{'swap frac':>9} {'violations':>11} {'after fix':>10} "
        f"{'fix rate':>9} {'swaps':>6} {'moves':>6} {'dLeak (uW)':>11}"
    ]
    for fraction, before, report in rows:
        lines.append(
            f"{fraction:9.2f} {before:>11} {report.violations_after:>10} "
            f"{report.fix_rate * 100:8.0f}% {report.swaps:>6} "
            f"{report.moves:>6} {report.leakage_delta * 1e3:11.3f}"
        )
    record_table("sec24_minia_fixer", "\n".join(lines))

    # Paper shape: violations substantially reduced (up to 100%).
    for fraction, before, report in rows:
        assert before > 0
        assert report.fix_rate >= 0.9
