"""Differential test of the deciders' integer member path.

`decide_tnn` and `decide_trop` compare the input with the raw integers of
the sweep: classically by cross-multiplying each coordinate with its size
block's unit, after a walk on int pairs, and tropically on the integers
Q = L (p - p_unit), on which `decide_trop` also runs its three-term scan.
The reconstruction they replace built the canonical vector, compared
rendered `Fraction` and `Trop` vectors, solved the weights in `Fraction`
and `Trop` arithmetic and scanned with `Trop` products; it is kept below
as the frozen reference, with the set-based `_lex_chain_cell`. Both must
give equal certificates (`to_json_dict()` and `weights`) on members of
every S3-S5 cell, on one-coordinate edits of members, on no-cell
supports, at the S7 and S8 top cells, on classical members whose blocks
are scaled so that no unit is 1, on blocks with a negative unit, and on
the edge cases of the scaling: no coordinates, ints, negative values and
coprime denominators whose lcm is huge.
"""

import math
import random
from fractions import Fraction

from tnnflag.algebra import TROP_INF, Trop, rat_to_str
from tnnflag.extremal import flag_matroid_check, s_vw
from tnnflag.membership import (
    CellCertificate, _lex_chain_cell, decide_tnn, decide_trop, identify_cell,
    psi,
)
from tnnflag.perms import (
    Perm, bruhat_leq, bruhat_pairs, identity, inverse, longest_element,
)
from tnnflag.plucker import (
    PlueckerVector, TropPlueckerVector, all_proper_indices,
    generate_relations, index_to_str, phi, trop_phi,
)
from tnnflag.wiring import build_diagram

from test_decide_order import reconstruction
from walk_reference import generators

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
            for j in gen.weight_ids:
                if j != new:
                    x = x / weights[j]
            weights[new] = x if len(gen.weight_ids) > 1 else x / one
    return weights


def ref_lex_chain_cell(support, n):
    mins = []
    maxs = []
    for k in range(1, n):
        block = support[k]
        if not block:
            raise ValueError(f"no supported index of size {k}")
        mins.append(min(block))
        maxs.append(max(block))

    def chain_to_perm(chain):
        images = []
        seen = set()
        for k, I in enumerate(chain, start=1):
            new = set(I) - seen
            if len(I) != k or not seen <= set(I) or len(new) != 1:
                raise ValueError("Gale-extreme indices do not form a flag")
            images.append(new.pop())
            seen = set(I)
        images.extend(sorted(set(range(1, n + 1)) - seen))
        return inverse(Perm(tuple(images)))

    v, w = chain_to_perm(mins), chain_to_perm(maxs)
    if not bruhat_leq(v, w):
        raise ValueError("no cell: v is not <= w in Bruhat order")
    return v, w


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


def ref_canonical(p):
    """The canonical vector and the support, in one pass that tests each
    coordinate against the semiring's zero."""
    sup = {k: set() for k in range(1, p.n)}
    for I, val in p.coords.items():
        if val != p.zero:
            sup[len(I)].add(I)
    coords = {}
    for block in sup.values():
        if block:
            unit = p.coords[min(block)]
            inv = p.one / unit
            for I in block:
                coords[I] = p.coords[I] if unit == p.one else p.coords[I] * inv
    return type(p)(p.n, coords), sup


def ref_reconstruct(p, psi_fn, phi_fn):
    q, sup = ref_canonical(p)
    try:
        v, w = ref_lex_chain_cell(sup, p.n)
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


def _same_chains(p, outcomes):
    """`_lex_chain_cell` on p's sorted view and its set-based reference on
    p's support give the same cell, or the same ValueError; counts the
    outcomes."""
    got, want = [], []
    blocks = [I for I, _ in p._int_view()[0]]
    for fn, sup, out in ((_lex_chain_cell, blocks, got),
                         (ref_lex_chain_cell, p.support(), want)):
        try:
            out.append(fn(sup, p.n))
        except ValueError as exc:
            out.append(str(exc))
    assert got == want, p.coords
    kind = got[0] if isinstance(got[0], str) else "cell"
    key = kind[:kind.index(" of size")] if "of size" in kind else kind
    outcomes[key] = outcomes.get(key, 0) + 1


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
        got, same = reconstruction(p)
        want, want_sup = ref_reconstruct(p, *fns)
        assert (got.to_json_dict(), got.weights,
                [I for I, _ in p._int_view()[0]]) == \
            (want.to_json_dict(), want.weights,
             [tuple(sorted(block)) for block in want_sup.values()]), p.coords
        assert got.verdict != "member" or same, p.coords
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
    cell and every 16th S5 cell, to keep the suite's time in budget; the
    cell read off the chains of each tropical member."""
    rng = random.Random(171)
    outcomes = {}
    for n in (3, 4, 5):
        for i, (v, w) in enumerate(bruhat_pairs(n)):
            ids = build_diagram(v, w).weight_ids()
            t = trop_phi(v, w, _tropical_weights(ids, rng))
            assert _assert_same(t) == "member", (v, w)
            _same_chains(t, outcomes)
            if n < 5 or i % 16 == 0:
                p = phi(v, w, _classical_weights(ids, rng))
                assert _assert_same(p) == "member", (v, w)
    assert set(outcomes) == {"cell"}, outcomes


def test_edits_of_members():
    """Every S3 cell, every other S4 cell and 20 seeded S5 cells; the
    cell read off the chains of each edit, and of two random flags together."""
    rng = random.Random(172)
    cells = bruhat_pairs(3) + bruhat_pairs(4)[::2]
    cells += rng.sample(bruhat_pairs(5), 20)
    kinds, outcomes = {}, {}
    for v, w in cells:
        ids = build_diagram(v, w).weight_ids()
        for p in (phi(v, w, _classical_weights(ids, rng)),
                  trop_phi(v, w, _tropical_weights(ids, rng))):
            for bad in _edits(p, v, w, rng):
                _assert_same(bad, kinds)
                _same_chains(bad, outcomes)
    for n in (4, 5):        # the union of two random flags' indices
        for _ in range(100):
            flags = [rng.sample(range(1, n + 1), n) for _ in range(2)]
            _same_chains(PlueckerVector(n, {tuple(sorted(f[:k])): 1
                                            for f in flags for k in range(1, n)}),
                         outcomes)
    # keys with a repeated element, which only ``check_indices`` rejects
    for coords in ({(2,): 1, (2, 2): 1}, {(1,): 1, (1, 2): 1, (1, 1, 1): 1}):
        _same_chains(PlueckerVector(len(max(coords, key=len)) + 1, coords),
                     outcomes)
    assert set(outcomes) == {
        "cell", "no supported index", "Gale-extreme indices do not form a flag",
        "no cell: v is not <= w in Bruhat order"}, outcomes
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


def _scaled_blocks(p, rng):
    """p with each size block times its own positive rational, none 1."""
    factors = {k: Fraction(a, rng.choice((1, 41, 43)))
               for k, a in enumerate(rng.sample(range(2, 41), p.n - 1), start=1)}
    return PlueckerVector(p.n, {I: x * factors[len(I)]
                                for I, x in p.coords.items()})


def test_members_with_no_unit_one():
    """Classical members, each size block scaled by a different positive
    rational, on every 16th S5 cell and the S7 top cell: the comparison
    cross-multiplies with units that are not 1, and the weights are
    still the ones ``phi`` was given."""
    rng = random.Random(175)
    for v, w in bruhat_pairs(5)[::16] + [(identity(7), longest_element(7))]:
        a = _classical_weights(build_diagram(v, w).weight_ids(), rng)
        p = _scaled_blocks(phi(v, w, a), rng)
        units = [p.coords[min(block)] for block in p.support().values()]
        assert all(u != 1 for u in units) and len(set(units)) == len(units)
        assert _assert_same(p) == "member", (v, w)
        assert decide_tnn(p).weights == a, (v, w)


def test_negative_units_at_the_reconstruction():
    """A size block whose unit is negative: negated whole (the same
    projective point, which the reconstruction certifies and
    ``decide_tnn`` rejects at its negative coordinate), at its unit
    only, and everywhere but at its unit. The walk must read the sign
    of the coordinate times its unit."""
    rng = random.Random(176)
    cells = bruhat_pairs(3) + bruhat_pairs(4)[::3] + rng.sample(bruhat_pairs(5), 12)
    kinds = {}
    for v, w in cells:
        p = phi(v, w, _classical_weights(build_diagram(v, w).weight_ids(), rng))
        for q in (p, _integral(p)):
            blocks = [sorted(b) for b in q.support().values() if len(b) > 1]
            if not blocks:
                continue
            block = rng.choice(blocks)
            for negated in (block, block[:1], block[1:]):
                _assert_same(PlueckerVector(q.n, {
                    **q.coords, **{I: -q.coords[I] for I in negated}}), kinds)
    for key in (("reconstruct", "member"),
                ("reconstruct", "unsupported-generating-index"),
                ("negative-coordinate",)):
        assert kinds.get(("classical",) + key), (key, kinds)


def test_psi_on_int_coordinates():
    """``psi`` on members scaled to int coordinates block by block equals
    the Fraction walk's weights on the canonical point, which are the
    member's weights, and every weight is a Fraction (on ints at the
    generating indices alone, ``test_psi_walk.py`` checks it)."""
    rng = random.Random(177)
    for v, w in bruhat_pairs(4) + rng.sample(bruhat_pairs(5), 40):
        a = _classical_weights(build_diagram(v, w).weight_ids(), rng)
        p = _integral(phi(v, w, a))
        got = psi(v, w, p)
        assert got == ref_psi(v, w, p.canonicalize()), (v, w)
        assert got == a, (v, w)
        assert all(type(x) is Fraction for x in got.values()), (v, w)


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
