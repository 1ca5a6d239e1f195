"""Smoke test of the benchmark itself: a tiny pass of every workload in
BENCHMARK.json, untraced and traced.  It checks that every op passes its
check, that every metric BENCHMARK.json names is emitted with its unit,
and that the traced pass reaches the same verdicts as the untraced one.

    python3 perfbench/smoke.py      # exit 0 when all hold
"""

import json
import sys

import run
from workloads import ROOT, WORKLOADS

OPS = 3


def check(spec, name):
    problems = []
    verdicts = {}
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, _, verdicts[trace] = run.measure(
            WORKLOADS[name], seed=0, seconds=1, trace=trace, n_ops=OPS,
            repeats=1)
        if not result["correct"] or result["failed"]:
            problems.append(f"{name} trace={int(trace)}: {result['failed']} "
                            f"of {result['attempted']} ops failed")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        if got != want:
            problems.append(f"{name} trace={int(trace)}: metrics {got} "
                            f"!= BENCHMARK.json {want}")
    if verdicts[False] != verdicts[True]:
        problems.append(f"{name}: traced verdicts {verdicts[True]} != "
                        f"untraced {verdicts[False]}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    problems = [] if set(names) <= set(WORKLOADS) else [
        f"unknown workloads {set(names) - set(WORKLOADS)}"]
    for name in names:
        if name in WORKLOADS:
            problems += check(spec, name)
            print(f"{name}: checked", flush=True)
    for p in problems:
        print("FAIL", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
