"""Differential test of the deciders' integer member path.

`decide_tnn` and `decide_trop` compare the canonical input with the raw
integers of the sweep, and `decide_trop` runs its three-term scan on the
integers Q = L (p - p_unit). The reconstruction they replace compared
rendered `Fraction` and `Trop` vectors, solved the tropical weights in
`Trop` arithmetic and scanned with `Trop` products; it is kept below as
the frozen reference. Both must give equal certificates (`to_json_dict()`
and `weights`) on members of every S3-S5 cell, on one-coordinate edits of
members, on no-cell supports, at the S7 and S8 top cells, and on the edge
cases of the scaling: no coordinates, ints, negative values and coprime
denominators whose lcm is huge.
"""

import math
import random
from fractions import Fraction

from tnnflag.algebra import TROP_INF, Trop, rat_to_str
from tnnflag.extremal import flag_matroid_check, generators, s_vw
from tnnflag.membership import (
    CellCertificate, _lex_chain_cell, _reconstruct, decide_tnn, decide_trop,
    identify_cell,
)
from tnnflag.perms import bruhat_pairs, identity, longest_element
from tnnflag.plucker import (
    PlueckerVector, TropPlueckerVector, all_proper_indices,
    generate_relations, index_to_str, phi, trop_phi,
)
from tnnflag.wiring import build_diagram

MERSENNE = [2 ** p - 1 for p in (89, 61, 107, 127, 521, 607, 1279)]


# ---------------------------------------------------------------------------
# The frozen reference: the Trop-valued reconstruction and scan
# ---------------------------------------------------------------------------

def _non_member(witness):
    return CellCertificate("non-member", witness=witness)


def ref_walk(v, w, value, one, usable, problem):
    weights = {}
    for gen in generators(v, w):
        if not gen.in_svw:
            continue
        x = value(gen.index)
        if not usable(x):
            raise ValueError(f"coordinate at generating index {gen.index} {problem}")
        new = gen.new_weight_id
        if new is not None:
            for j in gen.monomial.exponents:
                if j != new:
                    x = x / weights[j]
            weights[new] = x if len(gen.monomial.exponents) > 1 else x / one
    return weights


def ref_psi(v, w, p):
    return ref_walk(v, w, lambda I: p.coords.get(I, p.zero), p.one,
                    lambda x: x > 0, "is not positive")


def ref_trop_psi(v, w, p):
    return ref_walk(v, w, lambda I: p.coords.get(I, p.zero), p.one,
                    lambda x: not x.is_inf, "is infinite")


def ref_first_difference(q, r):
    for I in sorted(set(q.coords) | set(r.coords), key=lambda I: (len(I), I)):
        if q.coord(I) != r.coord(I):
            return _non_member({
                "type": "reconstruction-mismatch", "index": index_to_str(I),
                "input": q.render(q.coord(I)),
                "reconstructed": q.render(r.coord(I))})
    raise AssertionError("unequal vectors with equal coordinates (bug)")


def ref_reconstruct(p, psi_fn, phi_fn):
    q, sup = p._canonical()
    try:
        v, w = _lex_chain_cell(sup, p.n)
    except ValueError as exc:
        p.check_indices()
        return _non_member({"type": "no-cell", "reason": str(exc)}), sup
    try:
        weights = psi_fn(v, w, q)
    except ValueError as exc:
        p.check_indices()
        return _non_member({"type": "unsupported-generating-index",
                            "reason": str(exc)}), sup
    r = phi_fn(v, w, weights)
    if q.coords == r.coords:
        return CellCertificate("member", cell=(v, w), weights=weights), sup
    p.check_indices()
    return ref_first_difference(q, r), sup


def ref_terms_verdict(terms):
    finite = [(c, t) for c, t in terms if not t.is_inf]
    if not finite:
        return True, True
    mn = min(t for _, t in finite)
    attained = [c for c, t in finite if t == mn]
    solution = len(attained) >= 2
    return solution, solution and any(c > 0 for c in attained) \
        and any(c < 0 for c in attained)


def ref_check_relation(rel, p):
    return ref_terms_verdict([(sign, p.coord(left) * p.coord(right))
                              for sign, left, right in rel.terms])[1]


def ref_decide_tnn(p):
    if any(x < 0 for x in p.coords.values()):
        p.check_indices()
        for I in sorted(p.coords, key=lambda I: (len(I), I)):
            if p.coords[I] < 0:
                return _non_member({"type": "negative-coordinate",
                                    "index": index_to_str(I),
                                    "value": rat_to_str(p.coords[I])})
    cert, sup = ref_reconstruct(p, ref_psi, phi)
    if cert.verdict == "member" or flag_matroid_check(sup):
        return cert
    return _non_member({"type": "support-not-flag-matroid"})


def ref_decide_trop(p):
    cert, sup = ref_reconstruct(p, ref_trop_psi, trop_phi)
    if cert.verdict == "member":
        return cert
    for rel in generate_relations(p.n, True):
        if not ref_check_relation(rel, p):
            return _non_member({
                "type": "violated-tropical-relation",
                "I": index_to_str(rel.I) if rel.I else "",
                "J": index_to_str(rel.J),
                "terms": [[sign, index_to_str(a), index_to_str(b)]
                          for sign, a, b in rel.terms]})
    try:
        identify_cell(sup, p.n)
    except ValueError as exc:
        return _non_member({"type": "no-cell", "reason": str(exc)})
    return cert


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _kind(cert):
    return (cert.witness or {}).get("type", "member")


def _assert_same(p, kinds=None):
    """decide_* and its reference agree on p; returns the witness type.
    With ``kinds``, the reconstruction alone is compared too, since the
    three-term scan names most tropical rejections before it, and the
    witness types of both are counted."""
    new, ref = ((decide_trop(p), ref_decide_trop(p)) if p.mode == "tropical"
                else (decide_tnn(p), ref_decide_tnn(p)))
    assert new.to_json_dict() == ref.to_json_dict(), p.coords
    assert new.weights == ref.weights, p.coords
    if kinds is not None:
        fns = (ref_trop_psi, trop_phi) if p.mode == "tropical" else (ref_psi, phi)
        got, sup, _ = _reconstruct(p)
        want, want_sup = ref_reconstruct(p, *fns)
        assert (got.to_json_dict(), got.weights, sup) == \
            (want.to_json_dict(), want.weights, want_sup), p.coords
        for key in ((p.mode, _kind(new)), (p.mode, "reconstruct", _kind(got))):
            kinds[key] = kinds.get(key, 0) + 1
    return _kind(new)


def _classical_weights(ids, rng):
    return {j: Fraction(rng.randint(1, 99), rng.randint(1, 9)) for j in ids}


def _tropical_weights(ids, rng):
    return {j: Trop(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for j in ids}


def _edits(p, v, w, rng):
    """One-coordinate edits of the member p: moved at a non-generating and
    at a generating index, negated, set to zero or inf, dropped, a size's
    lexicographically greatest index dropped (which changes the cell read
    off the chains, or leaves none), and an unsupported index added at
    its size's unit value."""
    generating = set(s_vw(v, w))
    others = sorted(set(p.coords) - generating)
    tropical = p.mode == "tropical"

    def moved(x):
        return x * Trop(Fraction(rng.choice((-1, 1)), rng.randint(1, 3))) \
            if tropical else x * Fraction(rng.randint(2, 5), rng.randint(1, 3))

    out = []
    for pool in (others, sorted(generating)):
        if pool:
            I = rng.choice(pool)
            out.append({**p.coords, I: moved(p.coords[I])})
    I = rng.choice(sorted(p.coords))
    out.append({**p.coords, I: Trop(-p.coords[I].value) if tropical
                else -p.coords[I]})
    out.append({**p.coords, I: p.zero})          # an explicit zero or inf
    dropped = dict(p.coords)
    del dropped[rng.choice(sorted(p.coords))]
    out.append(dropped)
    sizes = {}
    for J in p.coords:
        sizes.setdefault(len(J), []).append(J)
    big = [k for k, block in sizes.items() if len(block) > 1]
    if big:
        k = rng.choice(sorted(big))
        # the remaining chains no longer nest, or v is no longer <= w
        out.append({J: x for J, x in p.coords.items() if J != max(sizes[k])})
    absent = [J for J in all_proper_indices(p.n) if J not in p.coords]
    if absent:
        J = rng.choice(absent)
        out.append({**p.coords, J: p.coords[min(sizes[len(J)])]})
    return [type(p)(p.n, coords) for coords in out]


def test_members_of_every_s3_to_s5_cell():
    """Tropical members of every cell; classical ones of every S3 and S4
    cell and every 16th S5 cell (the classical comparison changed less)."""
    rng = random.Random(171)
    for n in (3, 4, 5):
        for i, (v, w) in enumerate(bruhat_pairs(n)):
            ids = build_diagram(v, w).weight_ids()
            assert _assert_same(trop_phi(v, w, _tropical_weights(ids, rng))) \
                == "member", (v, w)
            if n < 5 or i % 16 == 0:
                p = phi(v, w, _classical_weights(ids, rng))
                assert _assert_same(p) == "member", (v, w)


def test_edits_of_members():
    """Every S3 cell, every other S4 cell and 20 seeded S5 cells."""
    rng = random.Random(172)
    cells = bruhat_pairs(3) + bruhat_pairs(4)[::2]
    cells += rng.sample(bruhat_pairs(5), 20)
    kinds = {}
    for v, w in cells:
        ids = build_diagram(v, w).weight_ids()
        for p in (phi(v, w, _classical_weights(ids, rng)),
                  trop_phi(v, w, _tropical_weights(ids, rng))):
            for bad in _edits(p, v, w, rng):
                _assert_same(bad, kinds)
    for kind in ("member", "negative-coordinate", "support-not-flag-matroid",
                 "no-cell", "unsupported-generating-index",
                 "reconstruction-mismatch"):
        assert kinds.get(("classical", kind)), (kind, kinds)
    for kind in ("member", "violated-tropical-relation", "no-cell"):
        assert kinds.get(("tropical", kind)), (kind, kinds)
    for kind in ("no-cell", "unsupported-generating-index",
                 "reconstruction-mismatch"):
        assert kinds.get(("tropical", "reconstruct", kind)), (kind, kinds)


def test_top_cells_s7_s8():
    rng = random.Random(173)
    for n in (7, 8):
        v, w = identity(n), longest_element(n)
        ids = build_diagram(v, w).weight_ids()
        for _ in range(3):
            assert _assert_same(phi(v, w, _classical_weights(ids, rng))) \
                == "member"
            assert _assert_same(trop_phi(v, w, _tropical_weights(ids, rng))) \
                == "member"


def _integral(p, bump=False):
    """p with each size block scaled to int coordinates (and the last one
    then raised by 1)."""
    coords = {}
    for k in range(1, p.n):
        block = {I: x for I, x in p.coords.items() if len(I) == k}
        scale = 3 * math.lcm(*(x.denominator for x in block.values()))
        coords.update({I: int(x * scale) for I, x in block.items()})
    if bump:
        coords[max(coords)] += 1
    assert all(type(x) is int for x in coords.values())
    return PlueckerVector(p.n, coords)


def test_edge_cases_of_the_scaling():
    rng = random.Random(174)
    # n = 1: no coordinates, so L is the lcm of nothing
    for p in (PlueckerVector(1, {}), TropPlueckerVector(1, {})):
        assert _assert_same(p) == "member"
    members, others = [], []
    for v, w in bruhat_pairs(2) + bruhat_pairs(3) + rng.sample(bruhat_pairs(4), 12):
        ids = build_diagram(v, w).weight_ids()
        n = len(v)
        rational = trop_phi(v, w, {j: Trop(Fraction(rng.randint(-9, 9),
                                                      rng.randint(2, 7)))
                                   for j in ids})
        ints = phi(v, w, {j: rng.randint(1, 9) for j in ids})
        negative = trop_phi(v, w, {j: Trop(-rng.randint(1, 50)) for j in ids})
        coprime = trop_phi(v, w, {j: Trop(Fraction(rng.randint(-99, 99), q))
                                  for j, q in zip(ids, MERSENNE)})
        members += [rational, _integral(ints), negative, coprime,
                    TropPlueckerVector(n, {I: Trop(int(t.value))
                                           for I, t in negative.coords.items()})]
        # classical int coordinates and Trops of ints that are no members
        others += [_integral(ints, bump=True),
                   TropPlueckerVector(n, {I: Trop(t.value.numerator)
                                          for I, t in rational.coords.items()})]
        for p in (rational, coprime):
            I = rng.choice(sorted(p.coords))
            others.append(TropPlueckerVector(
                n, {**p.coords, I: Trop(p.coords[I].value
                                        + Fraction(1, MERSENNE[0]))}))
    assert all(_assert_same(p) == "member" for p in members)
    kinds = {}
    for p in others:
        _assert_same(p, kinds)
    assert kinds.get(("classical", "reconstruction-mismatch")) and \
        kinds.get(("tropical", "violated-tropical-relation")), kinds
    # a vector whose only coordinate is an explicit inf
    assert _assert_same(TropPlueckerVector(3, {(1,): TROP_INF})) == "no-cell"
