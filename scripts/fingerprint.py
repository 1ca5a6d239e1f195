#!/usr/bin/env python3
"""
Print one SHA-256 over the library's results on every cell of S3, S4 and
S5, so that a refactor meant to change nothing can be checked against the
tree it started from with one command per tree:

    PYTHONPATH=src python3 scripts/fingerprint.py
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/fingerprint.py

Per cell it hashes the ``repr`` of: the wiring diagram, the generators,
``cell_support``, ``phi`` and ``trop_phi`` at seeded ``generic_weights``
(each rendered, canonicalized before and after its coordinates are read),
both deciders' certificates, ``extremal_indices`` and the three-term
propagation from the point's values at the generators; then
``generate_relations(4, True)``. A ``repr`` shows a dict's order and a
number's type, so the digest moves when either does.
"""

import hashlib
import sys
import time

from tnnflag.algebra import Trop
from tnnflag.extremal import cell_support, extremal_indices, generators
from tnnflag.membership import (
    decide_tnn, decide_trop, propagate_three_term, trop_propagate_three_term,
)
from tnnflag.oracle import generic_weights
from tnnflag.perms import bruhat_pairs
from tnnflag.plucker import generate_relations, phi, trop_phi
from tnnflag.wiring import build_diagram

SEED = 20


def cell_results(v, w):
    """The results of one cell, in a fixed order."""
    a = generic_weights(v, w, seed=SEED)
    x = {j: Trop(val) for j, val in a.items()}
    out = [build_diagram(v, w), generators(v, w), cell_support(v, w)]
    for make, weights, decide, propagate in (
            (phi, a, decide_tnn, propagate_three_term),
            (trop_phi, x, decide_trop, trop_propagate_three_term)):
        fresh = make(v, w, weights)
        out += [fresh.canonicalize(), fresh, fresh.canonicalize(),
                decide(make(v, w, weights)),
                extremal_indices(make(v, w, weights)),
                propagate({g.index: fresh.coord(g.index)
                           for g in generators(v, w)}, (v, w))]
    return out


def main() -> None:
    start = time.perf_counter()
    digest = hashlib.sha256()
    for n in (3, 4, 5):
        for v, w in bruhat_pairs(n):
            for obj in cell_results(v, w):
                digest.update(repr(obj).encode() + b"\n")
    digest.update(repr(generate_relations(4, True)).encode())
    print(digest.hexdigest())
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
