#!/usr/bin/env python3
"""
Print, for the top cell id <= w0 of each S_n given, one JSON line with
the median milliseconds of eleven stages of the library on that cell:

    PYTHONPATH=src python3 scripts/stage_times.py [N ...] [--runs R] [--against PATH]
    PYTHONPATH=src python3 scripts/stage_times.py --cold N [--against PATH]

N defaults to 6 7 8 and R to 200. The stages are the classical and the
tropical sweep alone (``wiring._run_sweep`` on the weights as ``phi``
and ``trop_phi`` hand them over, ``plucker._exact_weights`` and
``plucker._trop_ints`` of them, made before the clock starts), the
classical and the tropical inverse walk alone (``membership._solve`` on
the ``_int_view`` blocks of the ``phi`` and ``trop_phi`` points, which
the deciders hand it), ``phi`` then ``decide_tnn``, ``trop_phi`` then
``decide_trop``, each of those two round trips again with the
certificate's ``to_json_dict()`` (the text the CLI prints: the cost of
showing a member's weights), ``propagate_three_term`` from the values
of the ``phi`` point at the cell's extremal indices (a vector of those
indices only, so the inverse walk realigns its blocks onto the cell's),
and the two deciders alone on a near-miss:
the point given its coordinates, with the greatest non-generating
coordinate in (size, index) order doubled (``decide_tnn``) or raised by
1 (``decide_trop``), built before the clock starts. Both near-misses
are rejections, the classical one a ``reconstruction-mismatch`` and the
tropical one a ``violated-tropical-relation``. Each run draws fresh
weights from ``random.Random(n)``, each a Fraction with numerator 1..99
and denominator 1..9, and times every stage once on them with the
diagram already built.

``--cold N`` prints instead the per-cell medians, in microseconds, of
up to six stages over every cell v <= w of S_N: ``build_diagram``, then
``extremal.generators`` on that diagram (and the two summed), in a tree
that still has them there (since they moved to the oracle, a tree
reports none), then the inverse walk's program on it
(``extremal._walk_program``, which the deciders build instead of the
generators; a tree without it reports none), then
the deciders' cell read on the cell's own chain ends
(``extremal._lex_chain_cell`` on its supported indices, listed before
the clock starts; each read finds the cache of flags, in a tree that
has one, as the pass has left it so far, as in ``s5-sweep``, where no
cell's pair of ends repeats but its flags mostly do), and, in a second
pass, ``phi`` then ``decide_tnn``, each cell then at once
timed again as ``trop_phi`` then ``decide_trop`` of the same weights as
Trops, on the cell that the classical stage has just warmed. Every cache of the
package is cleared before each pass, and each pass sees each cell once,
as perfbench's ``s5-sweep`` does, whose tropical part follows its
classical part on each cell in the same way.

``--against PATH`` imports ``PATH/src/tnnflag`` as a second package and
times both trees on the same weights, run by run (or cell by cell with
``--cold``), alternating which goes first, which cancels the host's
speed drift; it prints both trees' medians and the ratio of this
tree's to PATH's per stage.
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
from tnnflag.perms import identity, longest_element


def _warm_stages(lib, v, w) -> dict:
    """The eleven warm stages of the package ``lib`` on the cell (v, w), each
    taking the inputs of ``_inputs``."""
    d = lib.wiring.build_diagram(v, w)
    run_sweep, m, p = lib.wiring._run_sweep, lib.membership, lib.plucker
    return {
        "sweep_classical_ms": lambda s: run_sweep(d, s["pairs"], True),
        "sweep_tropical_ms": lambda s: run_sweep(d, s["ints"], False),
        "solve_classical_ms": lambda s: m._solve(v, w, s["blocks"], True),
        "solve_tropical_ms": lambda s: m._solve(v, w, s["trop_blocks"], False),
        "phi_decide_tnn_ms": lambda s: m.decide_tnn(p.phi(v, w, s["a"])),
        "trop_phi_decide_trop_ms": lambda s: m.decide_trop(p.trop_phi(v, w, s["x"])),
        "phi_decide_tnn_json_ms":
            lambda s: m.decide_tnn(p.phi(v, w, s["a"])).to_json_dict(),
        "trop_phi_decide_trop_json_ms":
            lambda s: m.decide_trop(p.trop_phi(v, w, s["x"])).to_json_dict(),
        "propagate_three_term_ms":
            lambda s: m.propagate_three_term(s["extremal"], (v, w)),
        "decide_tnn_near_miss_ms": lambda s: m.decide_tnn(s["tnn_miss"]),
        "decide_trop_near_miss_ms": lambda s: m.decide_trop(s["trop_miss"]),
    }


def _inputs(lib, v, w, a) -> dict:
    """The stages' inputs at the weights a, for the package ``lib``: a,
    their pairs (``_exact_weights``), their Trops x, the ints L x_e
    (``_trop_ints``), the ``_int_view`` blocks of ``phi`` of a and
    ``trop_phi`` of x, read before their coordinates are, the values of
    ``phi`` of a at the extremal indices (``extremal_index_set``), and
    the two near-misses, ``phi`` of a and ``trop_phi`` of x given their
    coordinates, with the greatest non-generating coordinate doubled or
    raised by 1."""
    x = {j: lib.algebra.Trop(q) for j, q in a.items()}
    p, t = lib.plucker.phi(v, w, a), lib.plucker.trop_phi(v, w, x)
    blocks, trop_blocks = p._int_view()[0], t._int_view()[0]
    I = max(set(p.coords) - set(lib.extremal.s_vw(v, w)),
            key=lambda I: (len(I), I))
    return {"a": a, "pairs": lib.plucker._exact_weights(a), "x": x,
            "ints": lib.plucker._trop_ints(x)[0],
            "blocks": blocks, "trop_blocks": trop_blocks,
            "extremal": {I: p.coords[I] for I in lib.extremal.extremal_index_set(
                lib.extremal.cell_support(v, w))},
            "tnn_miss": type(p)(p.n, {**p.coords, I: 2 * p.coords[I]}),
            "trop_miss": type(t)(t.n, {**t.coords,
                                       I: lib.algebra.Trop(t.coords[I].value + 1)})}


def stage_times(n: int, runs: int, trees: list) -> list[dict]:
    """Per tree, the median milliseconds of the warm stages on the S_n top
    cell: the trees take turns on each run's weights, the first tree
    going first on even runs."""
    v, w = identity(n), longest_element(n)
    ids = trees[0].wiring.build_diagram(v, w).weight_ids()
    stages = [_warm_stages(lib, v, w) for lib in trees]
    turns = [list(enumerate(trees)), list(enumerate(trees))[::-1]]
    rng = random.Random(n)
    times = [{name: [] for name in stages[0]} for _ in trees]
    for r in range(runs):
        a = {j: Fraction(rng.randint(1, 99), rng.randint(1, 9)) for j in ids}
        for t, lib in turns[r % 2]:
            inputs = _inputs(lib, v, w, a)
            for name, stage in stages[t].items():
                times[t][name].append(_timed(stage, inputs))
    return [{"n": n, "runs": runs,
             **{name: round(1e3 * statistics.median(xs), 4)
                for name, xs in ts.items()}} for ts in times]


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


def _trop_phi_decide_trop(lib, v, w, x):
    return lib.membership.decide_trop(lib.plucker.trop_phi(v, w, x))


def cold_times(n: int, trees: list) -> list[dict]:
    """Per tree, the median microseconds per cell of the cold stages, over
    every cell of S_n in ``bruhat_pairs`` order: the trees take turns on
    each cell, the first tree going first on even cells."""
    cells = trees[0].perms.bruhat_pairs(n)
    turns = [list(enumerate(trees)), list(enumerate(trees))[::-1]]
    rng = random.Random(n)
    times = [{"build_diagram_us": [], "lex_chain_cell_us": [],
              "phi_decide_tnn_us": [], "trop_phi_decide_trop_us": []}
             for _ in trees]
    gens = [getattr(lib.extremal, "generators", None) for lib in trees]
    programs = [getattr(lib.extremal, "_walk_program", None) for lib in trees]
    for ts, g, program in zip(times, gens, programs):
        if g:
            ts["generators_us"] = []
        if program:
            ts["walk_program_us"] = []
    weights = []
    for lib in trees:
        _clear_caches(lib)
    for c, (v, w) in enumerate(cells):
        for t, lib in turns[c % 2]:
            times[t]["build_diagram_us"].append(
                _timed(lib.wiring.build_diagram, v, w))
            if gens[t]:
                times[t]["generators_us"].append(_timed(gens[t], v, w))
            if programs[t]:
                times[t]["walk_program_us"].append(_timed(programs[t], v, w))
            ends = lib.wiring._reached(lib.wiring.build_diagram(v, w))
            times[t]["lex_chain_cell_us"].append(
                _timed(lib.extremal._lex_chain_cell, ends, n))
        ids = trees[0].wiring.build_diagram(v, w).weight_ids()
        weights.append({j: Fraction(rng.randint(1, 99), rng.randint(1, 9))
                        for j in ids})
    for lib in trees:
        _clear_caches(lib)
    for c, ((v, w), a) in enumerate(zip(cells, weights)):
        for t, lib in turns[c % 2]:
            x = {j: lib.algebra.Trop(q) for j, q in a.items()}
            times[t]["phi_decide_tnn_us"].append(
                _timed(_phi_decide_tnn, lib, v, w, a))
            times[t]["trop_phi_decide_trop_us"].append(
                _timed(_trop_phi_decide_trop, lib, v, w, x))
    rows = []
    for ts in times:
        if "generators_us" in ts:
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
    trees = [tnnflag]
    if args.against:
        trees.append(_load_tree(args.against, "tnnflag_against"))
    if args.cold is None:
        for n in args.n:
            _print_rows(stage_times(n, args.runs, trees), args.against, "_ms")
    else:
        _print_rows(cold_times(args.cold, trees), args.against, "_us")


def _print_rows(rows: list[dict], against: str | None, unit: str) -> None:
    """Each tree's row, and with a second tree the ratio of this tree's
    medians to its per stage."""
    if not against:
        print(json.dumps(rows[0]), flush=True)
        return
    this, other = rows
    print(json.dumps({"tree": "this", **this}))
    print(json.dumps({"tree": against, **other}))
    print(json.dumps({"ratio": {name: round(x / other[name], 3)
                                for name, x in this.items()
                                if name.endswith(unit) and name in other}}),
          flush=True)


if __name__ == "__main__":
    main()
