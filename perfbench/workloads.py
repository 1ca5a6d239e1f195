"""The benchmark's workloads.  Each one generates its inputs from the seed
alone and warms up in ``prepare``.  An op is a fixed composite of one
classical part and one tropical part, timed separately: ``parts`` returns
the two as callables, each returning (seconds, verdict, ok), so that the
driver can probe the machine's speed between them.

Why each workload exists:

* ``s5-sweep``: cold per-cell cost, as ``verify`` and ``extremal_census``
  pay it.  Cells are drawn without replacement, so no timed op sees a cell
  that any earlier call in the process saw.
* ``top-cell``: the large-n target with warm caches and fresh weights:
  classical round trip on id <= w0 in S7, tropical round trip in S6.
* ``cli``: interpreter start, import and the ``cli`` layer, as one
  ``decide`` and one ``trop-decide`` subprocess per op.
"""

import contextlib
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


# ---------------------------------------------------------------------------
# Input generation (owned by the benchmark, independent of the library)
# ---------------------------------------------------------------------------

def _bruhat_leq(v, w):
    """Tableau criterion: sorted prefixes of v lie below those of w."""
    for k in range(1, len(v)):
        if any(a > b for a, b in zip(sorted(v[:k]), sorted(w[:k]))):
            return False
    return True


def _length(w):
    return sum(a > b for a, b in itertools.combinations(w, 2))


def bruhat_pairs(n):
    """All Bruhat pairs v <= w of S_n, ordered by cell dimension, then v, w."""
    perms = list(itertools.permutations(range(1, n + 1)))
    pairs = [(v, w) for v in perms for w in perms if _bruhat_leq(v, w)]
    return sorted(pairs, key=lambda p: (_length(p[1]) - _length(p[0]), p))


def systematic_sample(rng, population, k):
    """Every (len/k)-th item from a random offset, in random order.  Over a
    population ordered by cell dimension this fixes the mix of dimensions,
    so seeds differ in the cells drawn but hardly in their total cost."""
    step = len(population) / k
    offset = rng.random() * step
    sample = [population[int(offset + i * step)] for i in range(k)]
    rng.shuffle(sample)
    return sample


def weight_ids(lib, v, w):
    """Positions of the weight letters inside the reduced word of w (the
    library's documented convention), from the uncached ``perms`` layer."""
    perms = lib.perms
    n = len(v)
    w_sub = perms.positive_distinguished_subexpression(
        w, perms.canonical_w0_word(n))
    w_word = perms.Word(n, w_sub.letters(), w_sub.runs())
    crossings = set(perms.positive_distinguished_subexpression(
        v, w_word).positions)
    return [j for j in range(1, len(w_word) + 1) if j not in crossings]


def draw_weights(rng, ids):
    return {j: Fraction(rng.randint(1, 99), rng.randint(1, 9)) for j in ids}


def tropical(lib, a):
    return {j: lib.algebra.Trop(x) for j, x in a.items()}


def top_cell(n):
    return tuple(range(1, n + 1)), tuple(range(n, 0, -1))


# ---------------------------------------------------------------------------
# Op parts shared by the in-process workloads
# ---------------------------------------------------------------------------

def _member_ok(cert, v, w):
    return cert.verdict == "member" and cert.cell == (v, w)


def classical_member(lib, v, w, a):
    t0 = perf_counter()
    cert = lib.membership.decide_tnn(lib.plucker.phi(v, w, a))
    return perf_counter() - t0, cert.verdict, _member_ok(cert, v, w)


def tropical_member(lib, v, w, x):
    t0 = perf_counter()
    cert = lib.membership.decide_trop(lib.plucker.trop_phi(v, w, x))
    return perf_counter() - t0, cert.verdict, _member_ok(cert, v, w)


def non_generating(lib, v, w):
    """Supported indices of the cell outside the independent generators."""
    generating = set(lib.extremal.s_vw(v, w))
    support = lib.extremal.cell_support(v, w).sets
    return sorted(I for k in sorted(support) for I in support[k]
                  if I not in generating)


def near_misses(lib, v, w, a, x, index):
    """A fresh member built from the weights, with the coordinate at a
    non-generating ``index`` doubled (classical) or raised by 1 (tropical)."""
    p = lib.plucker.phi(v, w, a)
    q = lib.plucker.trop_phi(v, w, x)
    n = len(v)
    p_bad = lib.plucker.PlueckerVector(
        n, {**p.coords, index: 2 * p.coords[index]})
    q_bad = lib.plucker.TropPlueckerVector(
        n, {**q.coords, index: lib.algebra.Trop(q.coords[index].value + 1)})
    return p, q, p_bad, q_bad


class Workload:
    name = ""
    trace_ops = 0       # ops in each pass of a traced run

    def n_ops(self, seconds):
        """Ops in one untraced run; at least 100 so that ten lie
        beyond the p90."""
        raise NotImplementedError

    def prepare(self, lib, seed, n_ops):
        """Generate inputs and run the warm-up lap; returns the state that
        ``op`` reads and the check result of each warm-up op."""
        raise NotImplementedError

    def parts(self, lib, state, i):
        """Op i as (classical part, tropical part)."""
        raise NotImplementedError

    def op(self, lib, state, i):
        """Op i, untimed, as in a warm-up lap: (verdicts, ok)."""
        results = [part() for part in self.parts(lib, state, i)]
        return tuple(r[1] for r in results), all(r[2] for r in results)

    def trace_launches(self, state, seed, totals):
        """Route subprocesses through the timing launcher, adding to
        ``totals``; only ``cli`` starts any."""

    def finish(self, state):
        """Peak RSS (MB) of the process that did the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------

class S5Sweep(Workload):
    name = "s5-sweep"
    trace_ops = 60

    def n_ops(self, seconds):
        # fixed work: RSS grows with cells visited, so a time-bounded run
        # would tie max_rss_mb to ops_per_s
        return max(100, min(144 * seconds, 3780))

    def prepare(self, lib, seed, n_ops):
        rng = random.Random(f"{self.name}/{seed}")
        warm_cell = top_cell(5)     # warms per-n state; never timed
        pairs = [p for p in bruhat_pairs(5) if p != warm_cell]
        items = []
        for v, w in [warm_cell] + systematic_sample(rng, pairs, n_ops):
            a = draw_weights(rng, weight_ids(lib, v, w))
            items.append((v, w, a, tropical(lib, a)))
        warm = [self.op(lib, items, 0)[1]]
        return items[1:], warm

    def parts(self, lib, items, i):
        v, w, a, x = items[i]
        return (lambda: classical_member(lib, v, w, a),
                lambda: tropical_member(lib, v, w, x))


class TopCell(Workload):
    name = "top-cell"
    trace_ops = 6
    CLASSICAL_N = 7
    TROPICAL_N = 6      # the n=7 tropical part takes ~3 s per op

    def n_ops(self, seconds):
        return max(100, round(2.5 * seconds))

    def prepare(self, lib, seed, n_ops):
        rng = random.Random(f"{self.name}/{seed}")
        vc, wc = top_cell(self.CLASSICAL_N)
        vt, wt = top_cell(self.TROPICAL_N)
        ids_c, ids_t = weight_ids(lib, vc, wc), weight_ids(lib, vt, wt)
        items = [(draw_weights(rng, ids_c),
                  tropical(lib, draw_weights(rng, ids_t)))
                 for _ in range(n_ops + 1)]
        warm = [self.op(lib, items, n_ops)[1]]     # the warm-up lap
        return items[:n_ops], warm

    def parts(self, lib, items, i):
        a, x = items[i]
        return (lambda: classical_member(lib, *top_cell(self.CLASSICAL_N), a),
                lambda: tropical_member(lib, *top_cell(self.TROPICAL_N), x))


class Cli(Workload):
    name = "cli"
    trace_ops = 12

    def n_ops(self, seconds):
        return max(100, 4 * seconds)

    def prepare(self, lib, seed, n_ops):
        rng = random.Random(f"{self.name}/{seed}")
        v, w = top_cell(5)
        ids = weight_ids(lib, v, w)
        a = draw_weights(rng, ids)
        vectors = near_misses(lib, v, w, a, tropical(lib, a),
                              rng.choice(non_generating(lib, v, w)))
        OUT.mkdir(exist_ok=True)
        files = []
        for tag, vec in zip(("member", "trop-member", "miss", "trop-miss"),
                            vectors):
            path = OUT / f"cli-{seed}-{tag}.json"
            path.write_text(json.dumps(vec.to_json_dict(), sort_keys=True))
            files.append(str(path))
        # op i uses the member files (exit 0) when i is even, the
        # near-misses (exit 1) when odd
        argvs = [(["decide", files[0]], ["trop-decide", files[1]]),
                 (["decide", files[2]], ["trop-decide", files[3]])]
        expected = {}
        for code, pair in enumerate(argvs):
            for argv in pair:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    in_process = lib.cli.run(argv)
                expected[tuple(argv)] = (code, in_process, buf.getvalue().encode())
        state = {"argvs": argvs, "expected": expected, "launcher": None}
        # untimed warm-up: the .pyc compile of src/ happens here
        warm = [self._invoke(state, argvs[0][0])[2]]
        return state, warm

    def _invoke(self, state, argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        if state["launcher"] is None:
            cmd = [sys.executable, "-m", "tnnflag", *argv]
        else:
            cmd = [sys.executable, str(HERE / "launch.py"), *argv]
            env["PERFBENCH_LAUNCH_TIMES"] = state["launcher"]["path"]
            Path(state["launcher"]["path"]).unlink(missing_ok=True)
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=60)
        elapsed = perf_counter() - t0
        if state["launcher"] is not None:
            times = json.loads(Path(state["launcher"]["path"]).read_text())
            acc = state["launcher"]["totals"]
            acc["interp_start_s"] += times["start"] - t0
            acc["import_s"] += times["import_s"]
            acc["run_s"] += times["run_s"]
        code, in_process, out = state["expected"][tuple(argv)]
        ok = (proc.returncode == in_process == code and proc.stdout == out
              and b"Traceback" not in proc.stderr)
        return elapsed, proc.returncode, ok

    def parts(self, lib, state, i):
        decide, trop_decide = state["argvs"][i % 2]
        return (lambda: self._invoke(state, decide),
                lambda: self._invoke(state, trop_decide))

    def trace_launches(self, state, seed, totals):
        state["launcher"] = {"path": str(OUT / f"cli-{seed}-launch.json"),
                             "totals": totals}

    def finish(self, state):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {wl.name: wl for wl in (S5Sweep(), TopCell(), Cli())}
