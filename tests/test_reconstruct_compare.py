"""Differential test of the reconstruction's one comparison.

`membership._reconstruct` compares the blocks that the sweep at the
solved weights reads (`wiring._run_sweep`) with the input's integer
view, block by block: the same indices, then x_I r_unit = r_I x_unit
with the semiring's product. The two comparisons it replaced are frozen
below: classically the mask-indexed read of the sweep, cross-multiplied
with each block's unit; tropically a second integer view of the
reconstruction, compared with the input's as a dict. Both must give
equal certificates (the reconstruction's own witness named as the
deciders name it, after the key check) and weights, and agree on whether
the reconstruction's support is the input's, on the inputs of
`test_decide_order.py` (members of the S3 and S4 cells and of sampled S5
cells with their one-coordinate edits, random flags and random tropical
vectors) and on seeded one-coordinate near-misses at the S7 and S8 top
cells.
"""

import random
from collections import Counter

from tnnflag.algebra import Trop
from tnnflag.membership import (
    CellCertificate, _lex_chain_cell, _solve, _trop_weights,
)
from tnnflag.oracle import generic_weights
from tnnflag.perms import identity, longest_element
from tnnflag.plucker import (
    _sweep, all_proper_indices, index_to_str, phi, trop_phi,
)

from sweep_reference import raw_blocks, raw_sweep
from test_decide_order import _cells, _inputs, _random_inputs, reconstruction


# ---------------------------------------------------------------------------
# The frozen reference: the two comparisons on the mask-indexed raw sweep
# ---------------------------------------------------------------------------

def _non_member(witness):
    return CellCertificate("non-member", witness=witness)


def ref_first_difference(q, r):
    for I in all_proper_indices(q.n):
        if q.coord(I) != r.coord(I):
            return _non_member({
                "type": "reconstruction-mismatch", "index": index_to_str(I),
                "input": q.render(q.coord(I)),
                "reconstructed": q.render(r.coord(I))})
    raise AssertionError("unequal vectors with equal coordinates (bug)")


def _raw_view(n, raw):
    """The integer view of a tropical vector holding the mask-indexed raw
    sweep: its supports, and Q_I = raw_I - raw_unit per block."""
    sup, values = {}, {}
    for k, found in enumerate(raw_blocks(n, raw, None), start=1):
        sup[k] = [I for I, _ in found]
        values.update(found)
    for block in sup.values():
        unit = values[block[0]] if block else 0
        if unit:
            for I in block:
                values[I] -= unit
    return sup, values


def ref_reconstruct(p, sup, values, L):
    try:
        v, w = _lex_chain_cell(sup, p.n)
    except (TypeError, ValueError) as exc:
        p.check_indices()
        return _non_member({"type": "no-cell", "reason": str(exc)}), None
    try:
        a = _solve(v, w, values, p.signed)
    except ValueError as exc:
        p.check_indices()
        return _non_member({"type": "unsupported-generating-index",
                            "reason": str(exc)}), None
    raw, _ = raw_sweep(type(p)._of_raw(p.n, _sweep(v, w, a, p.signed), L))
    if p.signed:
        blocks = list(raw_blocks(p.n, raw, 0))
        r_sup = {k: [I for I, _ in found] for k, found in enumerate(blocks, start=1)}
        same = r_sup == sup and all(
            values[I] * found[0][1] == r_I * values[found[0][0]]
            for found in blocks for I, r_I in found)
    else:
        r_sup, r_values = _raw_view(p.n, raw)
        same = r_values == values
    if same:
        weights = a if p.signed else _trop_weights(a, L)
        return CellCertificate("member", cell=(v, w), weights=weights), r_sup
    p.check_indices()
    found = raw_blocks(p.n, raw, 0 if p.signed else None)
    r = type(p)._of_raw(p.n, [(tuple(I for I, _ in f), [x for _, x in f])
                              for f in found], L)
    return ref_first_difference(p.canonicalize(), r), r_sup


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _compare(vectors, seen):
    for p in vectors:
        sup, values, L = p._int_view()
        got, same = reconstruction(p)
        want, want_sup = ref_reconstruct(p, sup, values, L)
        assert (got.to_json_dict(), got.weights, same) == \
            (want.to_json_dict(), want.weights, want_sup == sup), p.coords
        kind = (got.witness or {}).get("type", "member")
        seen[p.mode, kind, same] += 1


def _near_misses(n, rng):
    """The S_n top cell's members at two seeded weight draws per semiring,
    and two copies of each, with one seeded coordinate doubled
    (classically) or raised by 1 (tropically)."""
    v, w = identity(n), longest_element(n)
    out = []
    for _ in range(2):
        a = generic_weights(v, w, seed=rng.randrange(1000))
        x = {j: Trop.of(rng.randint(-9, 9)) for j in a}
        for p, bump in ((phi(v, w, a), lambda c: c * 2),
                        (trop_phi(v, w, x), lambda t: Trop(t.value + 1))):
            coords = dict(p.coords)
            for I in rng.sample(sorted(coords), 2):
                out.append(type(p)(n, {**coords, I: bump(coords[I])}))
            out.append(p)
    return out


def test_one_comparison_matches_the_two_it_replaced():
    rng = random.Random(29)
    seen = Counter()
    for n in (3, 4):
        classical, tropical = _inputs(_cells(n), rng)
        c2, t2 = _random_inputs(n, 20, rng)
        _compare(classical + tropical + c2 + t2, seen)
    _compare(sum(_inputs(rng.sample(_cells(5), 10), rng), []), seen)
    for n in (7, 8):
        _compare(_near_misses(n, rng), seen)
    for mode in ("classical", "tropical"):
        assert seen[mode, "member", True], seen
        assert seen[mode, "reconstruction-mismatch", True], seen
        assert seen[mode, "reconstruction-mismatch", False], seen
        assert seen[mode, "no-cell", False], seen
        assert seen[mode, "unsupported-generating-index", False], seen
