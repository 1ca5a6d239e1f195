#!/usr/bin/env python3
"""
Print, for the top cell id <= w0 of each S_n given, one JSON line with
the median milliseconds of four stages of the library on that cell:

    PYTHONPATH=src python3 scripts/stage_times.py [N ...] [--runs R]

N defaults to 6 7 8 and R to 200. The stages are the classical and the
tropical sweep alone (``wiring._run_sweep`` on the weights as ``phi``
and ``trop_phi`` hand them over), ``phi`` then ``decide_tnn``, and
``trop_phi`` then ``decide_trop``. Each run draws fresh weights from
``random.Random(n)``, each a Fraction with numerator 1..99 and
denominator 1..9, and times every stage once on them with the diagram
already built. Run it with PYTHONPATH pointing at another checkout's src
to compare two trees; alternate the trees when the host's speed drifts.
Only the standard library is used.
"""

import argparse
import json
import random
import statistics
import time
from fractions import Fraction

from tnnflag.algebra import Trop
from tnnflag.membership import decide_tnn, decide_trop
from tnnflag.perms import identity, longest_element
from tnnflag.plucker import _scale_to_ints, phi, trop_phi
from tnnflag.wiring import _run_sweep, build_diagram


def stage_times(n: int, runs: int) -> dict:
    v, w = identity(n), longest_element(n)
    d = build_diagram(v, w)
    ids = d.weight_ids()
    rng = random.Random(n)
    # each stage takes the weights, their Trops, and the ints L a_e
    stages = {
        "sweep_classical_ms": lambda a, x, ints: _run_sweep(d, a, True),
        "sweep_tropical_ms": lambda a, x, ints: _run_sweep(d, ints, False),
        "phi_decide_tnn_ms": lambda a, x, ints: decide_tnn(phi(v, w, a)),
        "trop_phi_decide_trop_ms": lambda a, x, ints: decide_trop(trop_phi(v, w, x)),
    }
    times = {name: [] for name in stages}
    for _ in range(runs):
        a = {j: Fraction(rng.randint(1, 99), rng.randint(1, 9)) for j in ids}
        x = {j: Trop(q) for j, q in a.items()}
        ints, _ = _scale_to_ints(a)
        for name, stage in stages.items():
            t0 = time.perf_counter()
            stage(a, x, ints)
            times[name].append(time.perf_counter() - t0)
    return {"n": n, "runs": runs,
            **{name: round(1e3 * statistics.median(ts), 4)
               for name, ts in times.items()}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", nargs="*", type=int, default=[6, 7, 8])
    parser.add_argument("--runs", type=int, default=200)
    args = parser.parse_args()
    for n in args.n:
        print(json.dumps(stage_times(n, args.runs)), flush=True)


if __name__ == "__main__":
    main()
