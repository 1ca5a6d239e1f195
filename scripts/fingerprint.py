#!/usr/bin/env python3
"""
Print one SHA-256 over the library's results on every cell of S3, S4 and
S5, so that a refactor meant to change nothing can be checked against the
tree it started from with one command per tree:

    PYTHONPATH=src python3 scripts/fingerprint.py
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/fingerprint.py

Per cell it hashes the ``repr`` of: the wiring diagram without its
compiled sweep (``diagram_fields``: the sweep is an internal schedule
whose form may change while every result stays put), each of the
oracle's generators' index, fresh weight id and ``in_svw``, each size's
``graph_extremal_collections`` (the collections whose weight ids the
generators list), ``cell_support`` and the ``flag_matroid_check``
verdict on it with a seeded index toggled (see ``toggled``), ``phi`` and
``trop_phi`` at seeded ``generic_weights`` (``psi`` or ``trop_psi`` of the fresh, unrendered
point, then the point rendered, canonicalized before and after its
coordinates are read), both deciders' certificates, ``extremal_indices``,
the three-term propagation from the point's values at the generators,
and both deciders' certificates on seeded one-coordinate edits of the
point (see ``edits``); then ``generate_relations(4, True)``. A ``repr`` shows a
dict's order and a number's type, so the digest moves when either does.
A tree from before the generators moved to ``tnnflag.oracle`` has them
in ``tnnflag.extremal``, where they are read instead.
"""

import hashlib
import random
import sys
import time

from tnnflag import extremal, oracle
from tnnflag.algebra import Trop
from tnnflag.extremal import (
    cell_support, extremal_indices, flag_matroid_check, s_vw,
)
from tnnflag.membership import (
    decide_tnn, decide_trop, propagate_three_term, psi, trop_propagate_three_term,
    trop_psi,
)
from tnnflag.oracle import generic_weights, graph_extremal_collections
from tnnflag.perms import bruhat_pairs
from tnnflag.plucker import generate_relations, phi, trop_phi
from tnnflag.wiring import build_diagram

SEED = 20
generators = getattr(oracle, "generators", None) or extremal.generators


def edits(p, v, w, rng):
    """One-coordinate edits of the member p: the coordinate at a seeded
    index outside ``s_vw`` doubled (raised by 1 tropically), negated and
    dropped, and the lexicographically greatest index of a seeded size
    dropped."""
    coords = p.coords
    out = []
    others = sorted(set(coords) - set(s_vw(v, w)))
    if others:
        I = rng.choice(others)
        x = coords[I]
        moved = (2 * x, -x) if p.signed else (Trop(x.value + 1), Trop(-x.value))
        out += [{**coords, I: y} for y in moved]
        out.append({J: y for J, y in coords.items() if J != I})
    k = rng.randrange(1, p.n)
    top = max(J for J in coords if len(J) == k)
    out.append({J: y for J, y in coords.items() if J != top})
    return [type(p)(p.n, c) for c in out]


def diagram_fields(d):
    """The diagram's fields before its compiled sweep, as a tuple."""
    return (d.n, d.cell, d.source_label, d.edges, d.neg_segments, d.w_word,
            d.v_positions)


def toggled(sup, rng):
    """The blocks of the support sup with a seeded index of a seeded size
    added, or removed if it is there."""
    k = rng.randrange(1, sup.n)
    I = tuple(sorted(rng.sample(range(1, sup.n + 1), k)))
    return {**sup.sets, k: sup.sets[k] ^ {I}}


def cell_results(v, w, rng):
    """The results of one cell, in a fixed order."""
    a = generic_weights(v, w, seed=SEED)
    x = {j: Trop(val) for j, val in a.items()}
    d = build_diagram(v, w)
    sup = cell_support(v, w)
    out = [diagram_fields(d),
           [(g.index, g.new_weight_id, g.in_svw) for g in generators(v, w)],
           [graph_extremal_collections(d, k) for k in range(1, len(v))],
           sup, flag_matroid_check(toggled(sup, rng))]
    for make, weights, walk, decide, propagate in (
            (phi, a, psi, decide_tnn, propagate_three_term),
            (trop_phi, x, trop_psi, decide_trop, trop_propagate_three_term)):
        fresh = make(v, w, weights)
        out += [walk(v, w, fresh), fresh.canonicalize(), fresh, fresh.canonicalize(),
                decide(make(v, w, weights)),
                extremal_indices(make(v, w, weights)),
                propagate({g.index: fresh.coord(g.index)
                           for g in generators(v, w)}, (v, w))]
        out += [decide(q) for q in edits(fresh, v, w, rng)]
    return out


def main() -> None:
    start = time.perf_counter()
    digest = hashlib.sha256()
    rng = random.Random(SEED)
    for n in (3, 4, 5):
        for v, w in bruhat_pairs(n):
            for obj in cell_results(v, w, rng):
                digest.update(repr(obj).encode() + b"\n")
    digest.update(repr(generate_relations(4, True)).encode())
    print(digest.hexdigest())
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
