import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tnnflag.algebra import TROP_INF, Trop
from tnnflag.oracle import mr_matrix, phi_minors
from tnnflag.perms import all_perms, bruhat_leq, identity, longest_element
from tnnflag.plucker import (
    IncidenceRelation, PlueckerVector, TropPlueckerVector, _relation_terms,
    all_proper_indices, generate_relations, index_from_str, index_to_str, phi,
    trop_phi,
)
from tnnflag.wiring import build_diagram

from oracle_reference import check_relation, trop_check_relation, trop_terms_verdict

EX_V, EX_W = (1, 3, 2, 4), (4, 2, 1, 3)
EX_A = {1: Fraction(2), 2: Fraction(3), 4: Fraction(5)}


def test_index_str_roundtrip():
    assert index_to_str((1, 3)) == "1,3"
    assert index_from_str("2,4") == (2, 4)
    with pytest.raises(ValueError):
        index_from_str("3,1")


def test_coord_takes_an_index_in_any_order():
    """A sorted tuple is looked up as given; an unsorted tuple and a list
    are sorted first; a missing index gives the semiring's zero."""
    p = phi(EX_V, EX_W, EX_A)
    q = trop_phi(EX_V, EX_W, {j: Trop(x) for j, x in EX_A.items()})
    for r in (p, q):
        for I, x in r.coords.items():
            assert r.coord(I) == r.coord(I[::-1]) == r.coord(list(I)) == x
            assert r.coord(list(I[::-1])) == r.coord(iter(I)) == x
        assert r.coord((4, 1)) == r.coord([1, 4]) == r.zero
        assert (1, 4) not in r.coords


def test_all_proper_indices_count():
    assert len(list(all_proper_indices(4))) == 4 + 6 + 4


def test_example_cell_matrix():
    a1, a2, a4 = EX_A[1], EX_A[2], EX_A[4]
    assert mr_matrix(EX_V, EX_W, EX_A) == [
        [Fraction(1), a4, a1, Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(-1), Fraction(0), a2],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_mr_matrix_validates_weights():
    with pytest.raises(ValueError):
        mr_matrix(EX_V, EX_W, {1: Fraction(1), 2: Fraction(1), 3: Fraction(1)})
    with pytest.raises(ValueError):
        mr_matrix(EX_V, EX_W, {1: Fraction(-1), 2: Fraction(1), 4: Fraction(1)})


def test_phi_validates_weights():
    with pytest.raises(ValueError):
        phi(EX_V, EX_W, {1: Fraction(1), 2: Fraction(1), 3: Fraction(1)})
    with pytest.raises(ValueError):
        phi(EX_V, EX_W, {1: Fraction(-1), 2: Fraction(1), 4: Fraction(1)})
    for nonpositive in (0, -2, Fraction(0), Fraction(-1, 3)):
        with pytest.raises(ValueError, match="^weights must be strictly positive$"):
            phi(EX_V, EX_W, {1: 2, 2: nonpositive, 4: Fraction(5, 3)})


def test_int_weights_equal_their_fractions():
    a = {1: 2, 2: 3, 4: 5}
    p = phi(EX_V, EX_W, a)
    assert p.coords == phi(EX_V, EX_W, {j: Fraction(q)
                                        for j, q in a.items()}).coords
    assert all(type(c) is Fraction for c in p.coords.values())


@pytest.mark.parametrize("bad", [0.5, True, "1/2", None, Trop(Fraction(1))])
def test_phi_rejects_inexact_weights(bad):
    """A weight of the wrong type is named even when a weight before or
    after it is not positive."""
    for a in ({1: bad, 2: 3, 4: Fraction(5)}, {1: bad, 2: -3, 4: Fraction(5)},
              {4: Fraction(-5), 1: bad, 2: 3}):
        with pytest.raises(ValueError, match="weight 1:"):
            phi(EX_V, EX_W, a)


@pytest.mark.parametrize("bad", [Trop(0.5), Trop(True), Fraction(1), 2])
def test_trop_phi_rejects_inexact_weights(bad):
    with pytest.raises(ValueError, match="weight 1:"):
        trop_phi(EX_V, EX_W, {1: bad, 2: Trop(3), 4: Trop(Fraction(5))})


def _cells(n):
    ps = list(all_perms(n))
    return [(v, w) for v in ps for w in ps if bruhat_leq(v, w)]


def _assert_phi_is_minors(v, w, rng):
    a = {j: Fraction(rng.randint(1, 30), rng.randint(1, 5))
         for j in build_diagram(v, w).weight_ids()}
    assert phi(v, w, a).coords == phi_minors(v, w, a).coords, (v, w, a)


@pytest.mark.parametrize("n", [3, 4])
def test_phi_matches_minors_on_every_cell(n):
    rng = random.Random(n)
    for v, w in _cells(n):
        for _ in range(2):
            _assert_phi_is_minors(v, w, rng)


def test_phi_matches_minors_on_s5_sample():
    """60 seeded cells, the top cell, and two cells whose edges span 2-3
    strands across several -1 segments, so every path-sum sign counts."""
    rng = random.Random(5)
    cells = rng.sample(_cells(5), 60) + [
        (identity(5), longest_element(5)),
        ((3, 5, 2, 4, 1), (5, 4, 2, 3, 1)),
        ((3, 2, 1, 5, 4), (5, 4, 2, 3, 1)),
    ]
    for v, w in cells:
        _assert_phi_is_minors(v, w, rng)


def test_example_cell_phi_support_and_values():
    p = phi(EX_V, EX_W, EX_A)
    assert p.coord((4,)) == 0 and p.coord((1, 2)) == 0 and p.coord((2, 4)) == 0
    # canonical normalization: the Gale-minimal coordinate of each size is 1
    assert p.coord((1,)) == 1 and p.coord((1, 3)) == 1 and p.coord((1, 2, 3)) == 1
    assert p.coord((3,)) == EX_A[1]
    assert p.coord((2,)) == p.coord((2, 3)) == EX_A[4]
    assert p.coord((1, 3, 4)) == EX_A[2]
    assert p.coord((2, 3, 4)) == EX_A[2] * EX_A[4]


def test_phi_satisfies_all_relations():
    rng = random.Random(3)
    perms = list(all_perms(4))
    rels = generate_relations(4)
    for _ in range(5):
        v = rng.choice(perms)
        w = rng.choice(perms)
        if not bruhat_leq(v, w):
            continue
        a = {j: Fraction(rng.randint(1, 7)) for j in build_diagram(v, w).weight_ids()}
        p = phi(v, w, a)
        assert all(check_relation(rel, p) == 0 for rel in rels)


def test_relations_n3():
    rels = generate_relations(3)
    assert len(rels) == 1
    assert rels[0].terms == ((1, (1,), (2, 3)), (-1, (2,), (1, 3)),
                             (1, (3,), (1, 2)))
    assert generate_relations(3, True) == rels


def test_relations_dedup_no_empty():
    seen = set()
    for rel in generate_relations(4):
        assert rel.terms
        flip = -1 if rel.terms[0][0] < 0 else 1
        sig = tuple((flip * c, a, b) for c, a, b in rel.terms)
        assert sig not in seen, "duplicate relation up to sign"
        seen.add(sig)
    three = generate_relations(4, True)
    assert all(len(rel.terms) == 3 for rel in three)
    assert set(three) <= set(generate_relations(4))


def _relations_by_merge(n, three_term_only=False):
    """``generate_relations`` as it was before each relation was named by
    rule: every (I, J) pair's terms, like monomials merged, and a relation
    dropped when its sign-normalized terms were seen before."""
    universe = range(1, n + 1)
    seen = set()
    out = []
    for r in range(1, n):
        for s in range(r, min(r + 2, n) if three_term_only else n):
            for I in itertools.combinations(universe, r - 1):
                for J in itertools.combinations(universe, s + 1):
                    if three_term_only and len(set(J) - set(I)) != 3:
                        continue
                    terms = _relation_terms(I, J)
                    merged = {}
                    for sign, left, right in terms:
                        key = (min(left, right), max(left, right)) if r == s \
                            else (left, right)
                        merged[key] = merged.get(key, 0) + sign
                    clean = [(c, l_, r_) for (l_, r_), c in merged.items() if c != 0]
                    if not clean:
                        continue
                    clean.sort(key=lambda t: (t[1], t[2]))
                    flip = -1 if clean[0][0] < 0 else 1
                    sig = tuple((flip * c, l_, r_) for c, l_, r_ in clean)
                    if sig in seen:
                        continue
                    seen.add(sig)
                    out.append(IncidenceRelation(r, s, I, J, tuple(clean)))
    return tuple(out)


@pytest.mark.parametrize("n, three_term_only",
                         [(n, t) for n in range(2, 8) for t in (False, True)]
                         + [(8, True)])
def test_relations_named_by_rule_match_the_merge(n, three_term_only):
    """The same relations, fields, term order, signs and list order as
    merging every pair's terms and dropping repeats up to sign."""
    assert generate_relations(n, three_term_only) == \
        _relations_by_merge(n, three_term_only)


@pytest.mark.parametrize("n", range(2, 8))
def test_relations_have_a_term_per_element_and_no_repeats(n):
    """Each relation has one term per element of J - I, at least 3, no
    two on the same monomial, and no two relations are equal up to an
    overall sign."""
    seen = set()
    for rel in generate_relations(n):
        assert len(rel.terms) == len(set(rel.J) - set(rel.I)) >= 3
        assert len({(a, b) for _, a, b in rel.terms}) == len(rel.terms)
        for flip in (1, -1):
            assert tuple((flip * c, a, b) for c, a, b in rel.terms) not in seen
        seen.add(rel.terms)


def test_vector_json_roundtrip():
    p = phi(EX_V, EX_W, EX_A)
    q = PlueckerVector.from_json_dict(p.to_json_dict())
    assert q.coords == p.coords
    t = trop_phi(EX_V, EX_W, {j: Trop.of(x) for j, x in EX_A.items()})
    u = TropPlueckerVector.from_json_dict(t.to_json_dict())
    assert u.coords == t.coords


def test_vector_json_rejects_bad_indices():
    with pytest.raises(ValueError):
        PlueckerVector.from_json_dict(
            {"n": 3, "mode": "classical", "coords": {"1,2,3": "1"}})


@pytest.mark.parametrize("cls, val", [(PlueckerVector, Fraction(2)),
                                      (TropPlueckerVector, Trop.of(2))])
@pytest.mark.parametrize("bad", [(), (1, 2, 3)])
def test_support_names_a_key_of_size_0_or_n(cls, val, bad):
    """``support`` raises the ValueError of ``check_indices`` that names
    the key, not a KeyError, whether the vector is canonicalized or not."""
    p = cls(3, {(1,): val, bad: val, (1, 2): val})
    for method in (p.support, p.canonicalize):
        with pytest.raises(ValueError,
                           match=re.escape(f"bad index {bad} for n=3")):
            method()


@given(st.dictionaries(
    st.integers(1, 3).map(lambda k: ((1, 2, 3)[:k])),
    st.fractions(min_value=1, max_value=9), min_size=1))
def test_canonicalize_idempotent(coords):
    p = PlueckerVector(4, dict(coords)).canonicalize()
    assert p.canonicalize().coords == p.coords


def test_trop_phi_support_matches_classical():
    a = {1: Fraction(1), 2: Fraction(4), 4: Fraction(2)}
    p = phi(EX_V, EX_W, a)
    t = trop_phi(EX_V, EX_W, {j: Trop.of(x) for j, x in a.items()})
    assert p.support() == t.support()


def test_trop_phi_positively_satisfies_relations():
    t = trop_phi(EX_V, EX_W, {1: Trop.of(2), 2: Trop.of(3), 4: Trop.of(5)})
    for rel in generate_relations(4, True):
        assert trop_check_relation(rel, t, positive=True)


def test_trop_terms_verdict():
    # min attained once: not even a solution
    assert trop_terms_verdict([(1, Trop.of(0)), (-1, Trop.of(1))]) == (False, False)
    # attained twice with both signs: positive solution
    assert trop_terms_verdict(
        [(1, Trop.of(0)), (-1, Trop.of(0)), (1, Trop.of(2))]) == (True, True)
    # attained twice but only by positive terms: solution, not positive
    assert trop_terms_verdict(
        [(1, Trop.of(0)), (1, Trop.of(0)), (-1, Trop.of(2))]) == (True, False)
    # every term infinite: vacuously positive
    assert trop_terms_verdict([(1, TROP_INF), (-1, TROP_INF)]) == (True, True)


def test_top_cell_coordinates_all_positive():
    n = 4
    d = build_diagram(identity(n), longest_element(n))
    a = {j: Fraction(j + 1, 2) for j in d.weight_ids()}
    p = phi(identity(n), longest_element(n), a)
    assert all(p.coord(I) > 0 for I in all_proper_indices(n))
