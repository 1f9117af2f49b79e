"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload signoff_ref --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` sets up several times (``setup_s`` is their median),
measures one window with tracing off, checks the answers and prints the
end-to-end metrics. ``--trace 1`` sets up once, measures half the window
untraced and half with the per-layer wrappers of ``layers.py`` installed,
prints the per-layer metrics and the tracing overhead, and writes the
span tree to ``perfbench/out/`` (readable by ``repro trace summarize``).
``--workload all`` runs every workload, each in a fresh interpreter.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every answer check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up runs at least this many times, and cheap set-ups repeat (up to
#: three times as often) until this many seconds are spent, so that the
#: median is steady.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 2.0


def declared():
    """The workload names, and ``{name: unit}`` of the end-to-end and of
    the per-layer metrics, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)

    def units(key):
        return {m["name"]: m["unit"] for m in spec[key]}

    return ([w["name"] for w in spec["workloads"]], units("end_to_end"),
            units("per_layer"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=declared()[0] + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f} ms"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < q <= 100)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def tail(values):
    """The highest of p50/p75/p90/p95/p99/p99.9 with at least ten samples
    beyond it, as ``(q, value)``; None when no percentile qualifies."""
    best = None
    for q in (50, 75, 90, 95, 99, 99.9):
        value = percentile(values, q)
        if sum(v > value for v in values) >= 10:
            best = (q, value)
    return best


def describe_latencies(label: str, values) -> str:
    """Median plus the tail percentile rule, with sample counts."""
    if not values:
        return f"  {label:<22} no samples"
    line = (f"  {label:<22} p50 {_ms(statistics.median(values))} "
            f"(n={len(values)})")
    found = tail(values)
    if found is None:
        return line + "; tail: fewer than 20 samples"
    q, value = found
    return line + f"; tail p{q:g} {_ms(value)}"


def untraced(workload, seconds: float):
    from workloads import CAL_REFERENCE_S, calibrate, reference

    setups = []
    while len(setups) < SETUP_REPEATS or (
            sum(setups) < SETUP_BUDGET_S and len(setups) < 3 * SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        wall = time.perf_counter() - t0
        setups.append(reference(wall, calibrate()) if workload.calibrated
                      else wall)
    window = workload.window(seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "op_p50_ms": statistics.median(window.latencies_s) * 1e3,
        "op_per_s": window.completed / window.elapsed_s,
    }
    lines = []
    if workload.calibrated:
        lines.append(f"  {'machine speed':<22} probe median "
                     f"{_ms(statistics.median(window.probes_s))} (reference "
                     f"{_ms(CAL_REFERENCE_S)}); times below in reference "
                     "time")
    lines += [f"  {'setup':<22} median {statistics.median(setups):.3f} s "
              f"of {len(setups)} set-ups",
              describe_latencies(workload.op, window.latencies_s)]
    lines += [describe_latencies(name, values)
              for name, values in window.extra.items()]
    lines.append(f"  {'throughput':<22} {metrics['op_per_s']:.3f} "
                 f"{workload.unit}/s over {window.elapsed_s:.2f} s")
    lines.append(f"  {'peak RSS':<22} {rss_mb:.1f} MB")
    lines += headlines(workload, window, metrics)
    return metrics, window, lines


def headlines(workload, window, metrics) -> list:
    """The workload's headline figures, each by its own name and unit."""
    series = {"op": window.latencies_s, **window.extra}
    figures = {"per_s": (metrics["op_per_s"], "")}
    for name, values in series.items():
        figures[f"{name}_p50"] = (statistics.median(values),
                                  f" (n={len(values)})")
        found = tail(values)
        if found is not None:
            figures[f"{name}_tail"] = (found[1], f" (p{found[0]:g}, "
                                                 f"n={len(values)})")
    lines = []
    for figure, (name, unit) in workload.headlines.items():
        if figure not in figures:
            lines.append(f"  {name:<22} (fewer than 20 samples)")
            continue
        value, note = figures[figure]
        scale = 1e3 if unit == "ms" else 1.0
        lines.append(f"  {name:<22} {value * scale:.4g} {unit}{note}")
    return lines


def traced(workload, seconds: float):
    from layers import LayerTracer, rethreaded
    from repro.obs.export import write_chrome_trace
    from workloads import OUT_DIR

    setup_tracer = LayerTracer()
    setup_tracer.install()
    try:
        workload.setup()
    finally:
        setup_tracer.uninstall()
    plain = workload.window(seconds / 2)

    tracer = LayerTracer()
    served = hasattr(workload, "stats")
    before = workload.stats() if served else None
    tracer.install()
    try:
        window = workload.window(seconds / 2)
    finally:
        tracer.uninstall()
    if served:
        _add_daemon_stats(tracer, before, workload.stats())

    per_layer = declared()[2]
    overhead = (statistics.median(window.latencies_s)
                / statistics.median(plain.latencies_s) - 1.0)
    metrics = {"liberty.make_library_s": setup_tracer.library_seconds(),
               "trace.overhead_ratio": overhead}
    metrics.update(tracer.metrics(
        ops=window.completed,
        names=[n for n in per_layer if n not in metrics]))

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{workload.seed}.json"
    spans = rethreaded(tracer.tracer.spans())
    write_chrome_trace(path, spans, metadata={
        "workload": workload.name, "seed": workload.seed,
        "seconds": seconds / 2, "ops": window.completed})
    lines = [describe_latencies(f"{workload.op}, untraced",
                                plain.latencies_s),
             describe_latencies(f"{workload.op}, traced",
                                window.latencies_s),
             f"  tracing overhead       {overhead:+.1%} on the p50",
             f"  trace                  {len(spans)} spans -> "
             f"{path.relative_to(ROOT)}"]
    lines += [f"  {name:<30} {metrics[name]:>14.6g} {unit}"
              for name, unit in per_layer.items()]
    return metrics, window, lines


def _add_daemon_stats(tracer, before: dict, after: dict) -> None:
    """The daemon's own counters over the traced window (``stats`` op)."""

    def delta(*path):
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b

    tracer.add(**{
        "serve.cache_hits": delta("cache", "hits"),
        "serve.cache_misses": delta("cache", "misses"),
        "serve.timer_builds": delta("timers", "builds"),
        "serve.incremental_retimes": delta("timers", "incremental_retimes"),
        "serve.full_retimes": delta("timers", "full_retimes"),
        "serve.shed": delta("admission", "shed"),
    })


def run_one(name: str, seed: int, seconds: float, trace: int,
            size: str = "full"):
    """Run one workload in this interpreter; returns (result, lines)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, size)
    units = declared()[2 if trace else 1]
    try:
        measure = traced if trace else untraced
        metrics, window, lines = measure(workload, seconds)
        answers = workload.answers()
        problems = workload.check(answers)
    finally:
        workload.close()
    ratio = window.failed / window.attempted if window.attempted else 0.0
    head = [f"workload {name}: seed {seed}, {seconds:g} s, "
            f"{'traced' if trace else 'untraced'}",
            *lines,
            f"  {'fail_ratio':<22} {ratio:.4f} ({window.failed} failed of "
            f"{window.attempted} attempted)",
            "  answers                " + ("correct" if not problems else
                                          f"WRONG: {problems[:5]}")]
    result = {
        "correct": not problems,
        "attempted": max(1, window.attempted),
        "failed": window.failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }
    return result, head


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter, then one summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in declared()[0]:
        proc = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"workload {name}: no result (exit {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    result, lines = run_one(args.workload, args.seed, args.seconds,
                            args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
