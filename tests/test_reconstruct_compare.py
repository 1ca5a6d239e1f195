"""Differential test of the reconstruction's one comparison.

`membership._reconstruct` compares the blocks that the sweep at the
solved weights reads (`wiring._run_sweep`) with the input's integer
view, block by block: the same indices, then x_I r_unit = r_I x_unit,
read as a list equality when the two units are equal or opposite and
cross-multiplied otherwise. The two comparisons it replaced are frozen
below: classically the mask-indexed read of the sweep, cross-multiplied
with each block's unit; tropically a second integer view of the
reconstruction, compared with the input's as a dict. The reference
solves its weights with the frozen callback walk (`solve_reference.py`),
not the library's, and hands them to the sweep as the library's
`_exact_weights` does. Both must give equal certificates (the
reconstruction's own witness named as the deciders name it, after the
key check) and weights, and agree on whether the reconstruction's
support is the input's, on the inputs of `test_decide_order.py`
(members of the S3 and S4 cells and of sampled S5 cells with their
one-coordinate edits, random flags and random tropical vectors), on
seeded one-coordinate near-misses at the S7 and S8 top cells, and on
copies of members and near-misses with each size block k rescaled by
1 + k, with one block negated, and read back from their canonical JSON.
Among the classical members, blocks whose unit equals the sweep's, is
its opposite, and is neither must all occur.

The mismatch witness (`membership._first_difference`) reads the view's
blocks and the sweep's, per size over the union of their indices. The
scan it replaced, over every proper index of the canonical input and of
a second vector built from the sweep's blocks, is frozen below as
`ref_first_difference`. On seeded near-misses in S6-S8 (top cells,
cells v <= w0 and id <= w with v or w drawn), a coordinate doubled or
raised by 1, a coordinate deleted, and classically a unit negated, both
must name the same witness against the sweep of the member's weights,
and the reconstruction's own witness must be the reference's.
"""

import json
import random
from collections import Counter
from fractions import Fraction

from tnnflag.algebra import Trop
from tnnflag.membership import (
    CellCertificate, _first_difference, _lex_chain_cell, _reconstruct,
)
from tnnflag.oracle import generic_weights
from tnnflag.perms import bruhat_leq, identity, longest_element
from tnnflag.plucker import (
    _sweep, all_proper_indices, index_to_str, phi, trop_phi,
)
from tnnflag.wiring import build_diagram

from solve_reference import ref_solve
from sweep_reference import raw_blocks, raw_sweep
from test_decide_order import _cells, _inputs, _random_inputs, reconstruction
from view_reference import ref_view


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


def ref_reconstruct(p, sup, values, L, units):
    """The certificate and the reconstruction's support; appends to
    ``units`` the pair (x_unit, r_unit) of each block of a classical
    reconstruction whose support is the input's."""
    try:
        v, w = _lex_chain_cell(list(sup.values()), p.n)
    except (TypeError, ValueError) as exc:
        p.check_indices()
        return _non_member({"type": "no-cell", "reason": str(exc)}), None
    try:
        a = ref_solve(v, w, values, p.signed)
    except ValueError as exc:
        p.check_indices()
        return _non_member({"type": "unsupported-generating-index",
                            "reason": str(exc)}), None
    x = {j: (q.numerator, q.denominator) for j, q in a.items()} if p.signed else a
    raw, _ = raw_sweep(type(p)._of_raw(p.n, _sweep(v, w, x, p.signed), L))
    if p.signed:
        blocks = list(raw_blocks(p.n, raw, 0))
        r_sup = {k: [I for I, _ in found] for k, found in enumerate(blocks, start=1)}
        same = r_sup == sup and all(
            values[I] * found[0][1] == r_I * values[found[0][0]]
            for found in blocks for I, r_I in found)
        if r_sup == sup:
            units += [(values[found[0][0]], found[0][1]) for found in blocks]
    else:
        r_sup, r_values = _raw_view(p.n, raw)
        same = r_values == values
    if same:
        weights = a if p.signed else {j: Trop(Fraction(q, L)) for j, q in a.items()}
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
        sup, values, L = ref_view(p)
        got, same = reconstruction(p)
        units = []
        want, want_sup = ref_reconstruct(p, sup, values, L, units)
        assert (got.to_json_dict(), got.weights, same) == \
            (want.to_json_dict(), want.weights, want_sup == sup), p.coords
        kind = (got.witness or {}).get("type", "member")
        seen[p.mode, kind, same] += 1
        if kind == "member":
            for x, r in units:
                seen["unit", "equal" if x == r else "opposite" if x == -r
                     else "other"] += 1


def _rescaled(vectors, rng):
    """Each vector with each size block k scaled by 1 + k (classically) or
    shifted by k (tropically), with one seeded block negated
    (classically), and read back from its canonical JSON."""
    out = []
    for p in vectors:
        cls, coords = type(p), p.coords
        if p.signed:
            out.append(cls(p.n, {I: x * (1 + len(I)) for I, x in coords.items()}))
            k = rng.randrange(1, p.n)
            out.append(cls(p.n, {I: -x if len(I) == k else x
                                 for I, x in coords.items()}))
        else:
            out.append(cls(p.n, {I: Trop(t.value + len(I))
                                 for I, t in coords.items()}))
        out.append(cls.from_json_dict(json.loads(json.dumps(p.to_json_dict()))))
    return out


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
    members = sum(_inputs(rng.sample(_cells(4), 20), rng), [])
    _compare(_rescaled(members, rng), seen)
    for n in (7, 8):
        near = _near_misses(n, rng)
        _compare(near + _rescaled(near, rng), seen)
    assert seen["unit", "equal"] and seen["unit", "opposite"], seen
    assert seen["unit", "other"], seen
    for mode in ("classical", "tropical"):
        assert seen[mode, "member", True], seen
        assert seen[mode, "reconstruction-mismatch", True], seen
        assert seen[mode, "reconstruction-mismatch", False], seen
        assert seen[mode, "no-cell", False], seen
        assert seen[mode, "unsupported-generating-index", False], seen


# ---------------------------------------------------------------------------
# The mismatch witness on blocks
# ---------------------------------------------------------------------------

def _witness_cells(n, rng):
    """The S_n top cell, a cell v <= w0 and a cell id <= w, v and w drawn."""
    w0, e = longest_element(n), identity(n)
    v, w = (tuple(rng.sample(range(1, n + 1), n)) for _ in range(2))
    assert bruhat_leq(e, w) and bruhat_leq(v, w0)
    return [(e, w0), (v, w0), (e, w)]


def _witness_inputs(p, rng):
    """Seeded near-misses of the member p: a coordinate doubled (raised
    by 1 tropically), a coordinate deleted, and classically a size's unit
    negated. A coordinate is doubled, and a unit negated, only in a size
    block with another coordinate, so that the point moves."""
    coords = p.coords
    shared = [I for I in sorted(coords)
              if any(len(J) == len(I) and J != I for J in coords)]
    out = []
    for I in rng.sample(shared, 3):
        out.append({**coords, I: coords[I] * 2 if p.signed
                    else Trop(coords[I].value + 1)})
    for I in rng.sample(sorted(coords), 2):
        out.append({J: x for J, x in coords.items() if J != I})
    if p.signed:
        k = len(rng.choice(shared))
        unit = min(I for I in coords if len(I) == k)
        out.append({**coords, unit: -coords[unit]})
    return [type(p)(p.n, c) for c in out]


def test_block_witness_matches_the_index_scan():
    rng = random.Random(3535)
    seen = Counter()
    for n in (6, 7, 8):
        for v, w in _witness_cells(n, rng):
            ids = build_diagram(v, w).weight_ids()
            a = {j: Fraction(rng.randint(1, 99), rng.randint(1, 9)) for j in ids}
            x = {j: Trop.of(rng.randint(-9, 9)) for j in ids}   # L = 1
            for member in (phi(v, w, a), trop_phi(v, w, x)):
                raw, L = member._raw
                r = type(member)._of_raw(n, raw, L)
                for q in _witness_inputs(member, rng):
                    blocks, qL = q._int_view()
                    assert qL == L or q.signed
                    got = _first_difference(q, blocks, raw, L)
                    want = ref_first_difference(q.canonicalize(), r).witness
                    assert got == want, (v, w, q.coords)
                    found, same = _reconstruct(q, blocks, qL)
                    if type(found) is list:
                        r2 = type(q)._of_raw(n, found, qL)
                        assert _first_difference(q, blocks, found, qL) == \
                            ref_first_difference(q.canonicalize(), r2).witness
                    seen[q.mode, type(found).__name__, same] += 1
    for mode in ("classical", "tropical"):
        assert seen[mode, "list", True] and seen[mode, "list", False], seen
    assert seen["classical", "dict", False], seen
