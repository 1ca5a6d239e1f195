#!/usr/bin/env python3
"""
Print, for the top cell id <= w0 of each S_n given, one JSON line with
the median milliseconds of four stages of the library on that cell:

    PYTHONPATH=src python3 scripts/stage_times.py [N ...] [--runs R]
    PYTHONPATH=src python3 scripts/stage_times.py --cold N [--against PATH]

N defaults to 6 7 8 and R to 200. The stages are the classical and the
tropical sweep alone (``wiring._run_sweep`` on the weights as ``phi``
and ``trop_phi`` hand them over), ``phi`` then ``decide_tnn``, and
``trop_phi`` then ``decide_trop``. Each run draws fresh weights from
``random.Random(n)``, each a Fraction with numerator 1..99 and
denominator 1..9, and times every stage once on them with the diagram
already built. Run it with PYTHONPATH pointing at another checkout's src
to compare two trees; alternate the trees when the host's speed drifts.

``--cold N`` prints instead the per-cell medians, in microseconds, of
three cold stages over every cell v <= w of S_N: ``build_diagram``,
then ``generators`` on that diagram (and the two summed), and, in a
second pass, ``phi`` then ``decide_tnn``. Every cache of the package is cleared before each
pass, and each pass sees each cell once, as perfbench's ``s5-sweep``
does. ``--against PATH`` imports ``PATH/src/tnnflag`` as a second
package and times both trees on each cell, alternating which goes
first, which cancels the host's speed drift; it prints both trees'
medians and the ratio of this tree's to PATH's.
Only the standard library is used.
"""

import argparse
import importlib.util
import json
import pathlib
import random
import statistics
import sys
import time
from fractions import Fraction

import tnnflag
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


def _load_tree(root: str, name: str):
    """The package under ``root/src/tnnflag``, imported as ``name``."""
    init = pathlib.Path(root, "src", "tnnflag", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _clear_caches(lib) -> None:
    for module in (lib.perms, lib.wiring, lib.plucker, lib.extremal,
                   lib.membership):
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()


def _timed(f, *args) -> float:
    t0 = time.perf_counter()
    f(*args)
    return time.perf_counter() - t0


def _phi_decide_tnn(lib, v, w, a):
    return lib.membership.decide_tnn(lib.plucker.phi(v, w, a))


def cold_times(n: int, trees: list) -> list[dict]:
    """Per tree, the median microseconds per cell of the cold stages, over
    every cell of S_n in ``bruhat_pairs`` order: the trees take turns on
    each cell, the first tree going first on even cells."""
    cells = trees[0].perms.bruhat_pairs(n)
    turns = [list(enumerate(trees)), list(enumerate(trees))[::-1]]
    rng = random.Random(n)
    times = [{"build_diagram_us": [], "generators_us": [],
              "phi_decide_tnn_us": []} for _ in trees]
    weights = []
    for lib in trees:
        _clear_caches(lib)
    for c, (v, w) in enumerate(cells):
        for t, lib in turns[c % 2]:
            times[t]["build_diagram_us"].append(
                _timed(lib.wiring.build_diagram, v, w))
            times[t]["generators_us"].append(
                _timed(lib.extremal.generators, v, w))
        ids = trees[0].wiring.build_diagram(v, w).weight_ids()
        weights.append({j: Fraction(rng.randint(1, 99), rng.randint(1, 9))
                        for j in ids})
    for lib in trees:
        _clear_caches(lib)
    for c, ((v, w), a) in enumerate(zip(cells, weights)):
        for t, lib in turns[c % 2]:
            times[t]["phi_decide_tnn_us"].append(
                _timed(_phi_decide_tnn, lib, v, w, a))
    rows = []
    for ts in times:
        ts["build_diagram_generators_us"] = list(
            map(sum, zip(ts["build_diagram_us"], ts["generators_us"])))
        rows.append({"n": n, "cells": len(cells),
                     **{name: round(1e6 * statistics.median(xs), 2)
                        for name, xs in ts.items()}})
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", nargs="*", type=int, default=[6, 7, 8])
    parser.add_argument("--runs", type=int, default=200)
    parser.add_argument("--cold", type=int, metavar="N")
    parser.add_argument("--against", metavar="PATH")
    args = parser.parse_args()
    if args.cold is None:
        for n in args.n:
            print(json.dumps(stage_times(n, args.runs)), flush=True)
        return
    trees = [tnnflag]
    if args.against:
        trees.append(_load_tree(args.against, "tnnflag_against"))
    rows = cold_times(args.cold, trees)
    print(json.dumps({"tree": "this", **rows[0]}))
    if args.against:
        this, other = rows
        print(json.dumps({"tree": args.against, **other}))
        print(json.dumps({"ratio": {name: round(x / other[name], 3)
                                    for name, x in this.items()
                                    if name.endswith("_us")}}))


if __name__ == "__main__":
    main()
