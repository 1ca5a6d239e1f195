"""Run the benchmark once per seed, one run at a time, and report for each
metric its median, quartiles and spread: the distance between the first
and third quartile as a share of the median.  This is how the benchmark's
steadiness is judged against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --workload s5-sweep --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload cli --seeds 1 2 3 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys

from workloads import OUT, ROOT


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (median, median, median))
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "values": values}
        bound = bounds.get(name)
        note = "" if bound is None else f"  bound {bound}  ({spread / bound:.2f} of it)"
        print(f"{name:36s} median {median:12.4f}  spread {spread:7.4f}{note}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
