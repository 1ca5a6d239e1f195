"""Closed-loop, single-client benchmark of tnnflag, run from the root of a
checkout:

    python3 perfbench/run.py --workload s5-sweep --seed 1 --seconds 10 --trace 0

It imports ``tnnflag`` from the checkout's ``src/``, generates its inputs
from ``--seed``, checks every op's verdict, and prints as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` they are the per-layer ones, from a traced pass normalised
per op.  The line before it holds the run's provenance (code identity,
Python, CPUs, seed, drift marker).  Each run's record and, when traced,
its spans go to ``perfbench/out/``.

Run length is a fixed op count per workload, sized from ``--seconds`` at
the baseline speed and never below 100 ops, so that the p90 has ten
samples beyond it and every commit does the same work.

Every time reported is taken at nominal machine speed.  A shared host
switches the CPU between speed states for seconds at a time; the same
loop has run at 1.4 to 3.0 ms within five minutes.  So a fixed stdlib
``Fraction`` loop, the probe, is timed between every two op parts and
before, within and after every set-up, and each interval is scaled by
``NOMINAL_PROBE_S`` over the mean of the probes on either side of it.
The process is pinned to one CPU so that probe and op share it.  The raw
wall-clock figures go to the provenance line.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

import spans
from workloads import OUT, ROOT, SRC, WORKLOADS

MODULES = spans.LAYERS + ("cli",)
SETUP_REPEATS = 3
NPROC = len(os.sched_getaffinity(0))
PROBE_TERMS = 250
PROBE_LAPS = 3      # the fastest lap counts, so one preempted lap is ignored
NOMINAL_PROBE_S = 0.00055   # about the probe's time in the fast state of
                            # the 2-vCPU VM (Python 3.11) it was tuned on


def forget_library():
    """Drop every tnnflag module object, and with them every cache."""
    for name in [m for m in sys.modules if m.split(".")[0] == "tnnflag"]:
        del sys.modules[name]
    gc.collect()


def import_library():
    """A fresh import of the checkout's tnnflag."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("tnnflag")
    if not os.path.realpath(package.__file__).startswith(os.path.realpath(SRC)):
        raise RuntimeError(f"tnnflag imported from {package.__file__}, not {SRC}")
    lib = SimpleNamespace(**{m: importlib.import_module(f"tnnflag.{m}")
                             for m in MODULES})
    return lib, package


def set_up(workload, seed, n_ops, repeats):
    """Import, input generation and warm-up lap, ``repeats`` times from
    scratch; returns the last set-up and the median set-up time."""
    times, warm = [], []
    for _ in range(repeats):
        lib = package = state = None    # so that forgetting frees the caches
        forget_library()
        before = probe_s()
        t0 = perf_counter()
        lib, package = import_library()
        t1 = perf_counter()
        middle = probe_s()
        t2 = perf_counter()
        state, checks = workload.prepare(lib, seed, n_ops)
        t3 = perf_counter()
        times.append(at_nominal(t1 - t0, before, middle)
                     + at_nominal(t3 - t2, middle, probe_s()))
        warm += checks
    return lib, package, state, statistics.median(times), warm


def run_ops(workload, lib, state, n_ops):
    """The closed loop: one op at a time, each checked, with a probe before
    the first part and after each part.  Returns the part times at nominal
    speed, the raw part times, the probe times, the verdicts and the
    failure count.  Exits when no op completes, as there is then no time
    to report."""
    classical, tropical_, raw, verdicts, failed = [], [], [], [], 0
    probes = [probe_s()]
    for i in range(n_ops):
        times, verdict, ok = [], [], True
        try:
            for part in workload.parts(lib, state, i):
                seconds, part_verdict, part_ok = part()
                probes.append(probe_s())
                times.append(seconds)
                verdict.append(part_verdict)
                ok = ok and part_ok
        except Exception as exc:    # an op that raises is a failed op
            print(f"op {i} raised {exc!r}", file=sys.stderr)
            verdicts.append(("error", type(exc).__name__))
            failed += 1
            probes.append(probe_s())
            continue
        verdicts.append(tuple(verdict))
        if not ok:
            print(f"op {i} failed its check: {verdict}", file=sys.stderr)
            failed += 1
        t_c, t_t = times
        classical.append(at_nominal(t_c, probes[-3], probes[-2]))
        tropical_.append(at_nominal(t_t, probes[-2], probes[-1]))
        raw.append((t_c, t_t))
    if not classical:
        raise SystemExit(f"error: none of {n_ops} ops completed")
    return classical, tropical_, raw, probes, verdicts, failed


def probe_s():
    """The speed probe: the fastest of a few laps of a fixed stdlib
    Fraction loop with GC off, in seconds."""
    gc.disable()
    try:
        laps = []
        for _ in range(PROBE_LAPS):
            t0 = perf_counter()
            s = Fraction(0)
            for i in range(1, PROBE_TERMS):
                s += Fraction(1, i)
            laps.append(perf_counter() - t0)
        return min(laps)
    finally:
        gc.enable()


def at_nominal(seconds, probe_before, probe_after):
    """An interval rescaled to the speed at which the probe takes
    ``NOMINAL_PROBE_S``, from the probes on either side of it."""
    return seconds * NOMINAL_PROBE_S * 2 / (probe_before + probe_after)


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(classical, tropical_, setup_s, rss_mb):
    ops = [c + t for c, t in zip(classical, tropical_)]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "op_ms_p90": (nearest_rank(ops, 0.9) * 1000, "ms"),
        "tnn_ms_p50": (statistics.median(classical) * 1000, "ms"),
        "trop_ms_p50": (statistics.median(tropical_) * 1000, "ms"),
        "max_rss_mb": (rss_mb, "MB"),
    }


def cache_delta(tr, name, field):
    return getattr(tr.cache_after[name], field) - getattr(tr.cache_before[name], field)


def per_layer(tr, n_ops, untraced_s, traced_s, launcher, probes):
    """Per-op layer figures from one traced pass.  Span times are scaled to
    nominal speed by the median probe of the pass."""
    stats = tr.span_stats()
    scale = NOMINAL_PROBE_S / statistics.median(probes)

    def calls(*names):
        return sum(stats.get(n, (0, 0.0))[0] for n in names) / n_ops

    def self_ms(*names):
        return sum(stats.get(n, (0, 0.0))[1] for n in names) * scale * 1000 / n_ops

    hits = sum(cache_delta(tr, k, "hits") for k in tr.caches)
    lookups = hits + sum(cache_delta(tr, k, "misses") for k in tr.caches)
    perms_names = [n for n in stats if n.startswith("perms.")]
    figures = {
        "plucker.mr_matrix.self_ms": self_ms("plucker.mr_matrix"),
        "plucker.phi.self_ms": self_ms("plucker.phi"),
        "algebra.determinant.calls": calls("algebra.determinant"),
        "algebra.determinant.self_ms": self_ms("algebra.determinant"),
        "wiring.enumerate.calls": calls("wiring.enumerate_path_collections"),
        "wiring.collections": tr.collections / n_ops,
        "wiring.enumerate.self_ms": self_ms("wiring.enumerate_path_collections"),
        "plucker.trop_phi.self_ms": self_ms("plucker.trop_phi"),
        "extremal.generators.self_ms": self_ms("extremal.generators"),
        "extremal.cell_support.self_ms": self_ms("extremal.cell_support"),
        "perms.bruhat_leq.calls": calls("perms.bruhat_leq"),
        "perms.self_ms": self_ms(*perms_names),
        "wiring.build_diagram.misses":
            cache_delta(tr, "wiring.build_diagram", "misses") / n_ops,
        "oracle.flag_matroid_check.calls": calls("oracle.flag_matroid_check"),
        "oracle.flag_matroid_check.self_ms": self_ms("oracle.flag_matroid_check"),
        "membership.decide_tnn.self_ms": self_ms("membership.decide_tnn"),
        "membership.decide_trop.self_ms": self_ms("membership.decide_trop"),
        "membership.psi.self_ms": self_ms("membership.psi"),
        "membership.identify_cell.self_ms": self_ms("membership.identify_cell"),
        "plucker.relations_checked":
            calls("plucker.trop_check_relation", "plucker.check_relation"),
        "runtime.cache_entries":
            sum(info.currsize for info in tr.cache_after.values()),
        "runtime.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "runtime.gc_ms": tr.gc_s * scale * 1000 / n_ops,
        "runtime.gc_gen2": tr.gc_gen2 / n_ops,
        "cli.interp_start_ms": launcher["interp_start_s"] * scale * 1000 / n_ops,
        "cli.import_ms": launcher["import_s"] * scale * 1000 / n_ops,
        "cli.run_ms": launcher["run_s"] * scale * 1000 / n_ops,
        "machine.ref_ms": statistics.median(probes) * 1000,
        "trace.overhead_frac": traced_s / untraced_s - 1,
    }
    return {name: (value, LEVEL_UNITS.get(name, "ms/op" if name.endswith("_ms")
                                          else "1/op"))
            for name, value in figures.items()}


# per-layer figures that are levels or ratios rather than per-op flows
LEVEL_UNITS = {"runtime.cache_entries": "count", "runtime.cache_hit_ratio": "ratio",
               "machine.ref_ms": "ms", "trace.overhead_frac": "ratio"}


def code_identity():
    """The git commit when the checkout is a repository, and a digest of
    the library sources either way."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "tnnflag").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def measure(workload, seed, seconds, trace, n_ops=None, repeats=SETUP_REPEATS):
    """One run; returns (result line, provenance, verdicts)."""
    info = {"workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": trace, **code_identity(),
            "python": platform.python_version(),
            "nproc": NPROC, "cpus": sorted(os.sched_getaffinity(0))}
    if not trace:
        n_ops = n_ops or workload.n_ops(seconds)
        lib, _, state, setup_s, warm = set_up(workload, seed, n_ops, repeats)
        classical, tropical_, raw, probes, verdicts, failed = run_ops(
            workload, lib, state, n_ops)
        metrics = end_to_end(classical, tropical_, setup_s, workload.finish(state))
        info["wall_ms_p50"] = {
            "tnn": statistics.median(c for c, _ in raw) * 1000,
            "trop": statistics.median(t for _, t in raw) * 1000}
    else:
        # pass A untraced, then a fresh set-up (cold caches again) and the
        # same ops traced; the two must reach the same verdicts
        n_ops = n_ops or workload.trace_ops
        lib, _, state, _, warm = set_up(workload, seed, n_ops, 1)
        classical, tropical_, _, _, verdicts, failed = run_ops(
            workload, lib, state, n_ops)
        untraced_s = sum(classical) + sum(tropical_)
        lib = state = None
        lib, package, state, _, warm_b = set_up(workload, seed, n_ops, 1)
        warm += warm_b
        launcher = {"interp_start_s": 0.0, "import_s": 0.0, "run_s": 0.0}
        workload.trace_launches(state, seed, launcher)
        with spans.Tracer(lib, package) as tr:
            classical_b, tropical_b, _, probes, verdicts_b, failed_b = run_ops(
                workload, lib, state, n_ops)
        mismatched = sum(a != b for a, b in zip(verdicts, verdicts_b))
        if mismatched:
            print(f"{mismatched} traced verdicts differ", file=sys.stderr)
        failed += failed_b + mismatched
        n_ops *= 2
        OUT.mkdir(exist_ok=True)
        tr.write(OUT / f"{workload.name}-seed{seed}.spans.tsv")
        metrics = per_layer(tr, len(classical_b), untraced_s,
                            sum(classical_b) + sum(tropical_b), launcher, probes)
        verdicts = verdicts_b
    info["probe_ms_quartiles"] = [
        q * 1000 for q in statistics.quantiles(probes, n=4)]
    info["ops"] = n_ops
    result = {
        "correct": failed == 0 and warm.count(False) == 0,
        "attempted": n_ops + len(warm),
        "failed": failed + warm.count(False),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info, verdicts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tnnflag" / "__init__.py").is_file():
        print(f"error: no tnnflag sources under {SRC}", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result, info, _ = measure(WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, **result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
