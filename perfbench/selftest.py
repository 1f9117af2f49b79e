"""Self-test of the benchmark, at a small size.

    python3 perfbench/selftest.py

For every workload it runs one untraced and one traced smoke run and
asserts that each metric ``BENCHMARK.json`` names is emitted with its
unit, and that the answers were judged correct. It then shows that each
answer check is not vacuous: the check passes on the program's answer
and rejects a deliberately perturbed copy of it. Exits 0 when all hold.
"""

from __future__ import annotations

import sys

import run

SMOKE_SECONDS = 1.0


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import WORKLOADS

    workloads, end_to_end, per_layer = run.declared()
    failures = []

    def expect(condition: bool, message: str) -> None:
        print(("ok    " if condition else "FAIL  ") + message, flush=True)
        if not condition:
            failures.append(message)

    for name in workloads:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            result, _ = run.run_one(name, seed=1, seconds=SMOKE_SECONDS,
                                    trace=trace, size="smoke")
            emitted = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(emitted == declared,
                   f"{name} trace={trace}: every metric with its unit")
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace}: answers correct, none failed")

        workload = WORKLOADS[name](seed=1, size="smoke")
        try:
            workload.setup()
            workload.window(SMOKE_SECONDS / 2)
            answers = workload.answers()
            expect(not workload.check(answers),
                   f"{name}: check accepts the program's answer")
            expect(bool(workload.check(workload.perturb(answers))),
                   f"{name}: check rejects a perturbed answer")
        finally:
            workload.close()

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
