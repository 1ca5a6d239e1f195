import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tnnflag.algebra import Trop
from tnnflag.oracle import (
    determinant_cofactor, flag_matroid_check, generic_weights,
    reduced_word_oracle, support_oracle,
)
from tnnflag.perms import (
    all_perms, bruhat_leq, bruhat_pairs, identity, inverse, length,
    longest_element,
)
from tnnflag.plucker import generate_relations, phi, trop_phi
from tnnflag.wiring import build_diagram

from oracle_reference import (
    bruhat_leq_oracle, check_relation, ideal_element_sample, perm_from_word,
    random_flag, trop_eval_poly_terms,
)

EX_V, EX_W = (1, 3, 2, 4), (4, 2, 1, 3)


@given(st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(tuple))
def test_reduced_word_oracle(w):
    word = reduced_word_oracle(w)
    assert len(word) == length(w)
    assert perm_from_word(len(w), word) == w


def test_bruhat_oracle_agrees_with_tableau_criterion():
    for n in (3, 4):
        for v in all_perms(n):
            for w in all_perms(n):
                assert bruhat_leq_oracle(v, w) == bruhat_leq(v, w), (v, w)


def test_support_oracle_example_cell():
    assert support_oracle(EX_V, EX_W, 2) == {(1, 3), (2, 3)}
    with pytest.raises(ValueError):
        support_oracle(identity(8), identity(8), 1)
    with pytest.raises(ValueError):
        support_oracle((2, 1, 3), (1, 3, 2), 1)


def test_support_oracle_matches_subword_search_intervals():
    """The subword-product intervals agree with filtering all of S_n
    through the subword-search Bruhat test."""
    for n in (3, 4):
        perms = list(all_perms(n))
        leq = {(a, b): bruhat_leq_oracle(a, b) for a in perms for b in perms}
        for v in perms:
            for w in perms:
                if not leq[v, w]:
                    with pytest.raises(ValueError):
                        support_oracle(v, w, 1)
                    continue
                vi, wi = inverse(v), inverse(w)
                interval = [u for u in perms if leq[vi, u] and leq[u, wi]]
                for k in range(1, n):
                    assert support_oracle(v, w, k) == \
                        {tuple(sorted(u[:k])) for u in interval}, (v, w, k)


def test_flag_matroid_check_accepts_cell_supports():
    from tnnflag.extremal import cell_support
    for v in all_perms(3):
        for w in all_perms(3):
            if bruhat_leq(v, w):
                assert flag_matroid_check(cell_support(v, w).sets)


def test_flag_matroid_check_rejections():
    # violated basis exchange
    assert not flag_matroid_check({2: {(1, 4), (2, 3)}})
    # violated containment between sizes
    assert not flag_matroid_check({1: {(2,)}, 2: {(1, 3)}})
    # empty class
    assert not flag_matroid_check({1: set()})
    # wrong basis size
    assert not flag_matroid_check({2: {(1, 2, 3)}})


def test_random_flag_is_deterministic_and_valid():
    p = random_flag(4, seed=42)
    assert p.coords == random_flag(4, seed=42).coords
    for rel in generate_relations(4):
        assert check_relation(rel, p) == 0


def test_generic_weights_positive_with_right_ids():
    a = generic_weights(EX_V, EX_W, seed=0)
    assert set(a) == set(build_diagram(EX_V, EX_W).weight_ids())
    assert all(x > 0 for x in a.values())
    # distinct numerators by construction, so no accidental collisions
    assert len({x.numerator for x in a.values()}) == len(a)


def test_generic_weights_beyond_thirty_weights():
    """The S9 top cell has 36 weights: each gets its own prime numerator.
    Draws of up to 30 weights are those made from the first 30 primes
    alone, as before (the S5 and S8 top cells, with 10 and 28)."""
    v, w = identity(9), longest_element(9)
    a = generic_weights(v, w, seed=0)
    assert sorted(a) == list(build_diagram(v, w).weight_ids())
    assert len({x.numerator for x in a.values()}) == len(a) == 36
    assert all(x > 0 for x in a.values())
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]
    for n in (5, 8):
        v, w = identity(n), longest_element(n)
        ids = build_diagram(v, w).weight_ids()
        rng = random.Random(3)
        first = {j: Fraction(p, rng.randint(1, 7))
                 for j, p in zip(ids, rng.sample(primes, len(ids)))}
        second = {j: Fraction(p, rng.randint(1, 7))
                  for j, p in zip(ids, rng.sample(primes, len(ids)))}
        # the first draw is kept when both draws give the cell's support
        assert phi(v, w, first).support() == phi(v, w, second).support()
        assert generic_weights(v, w, seed=3) == first, n


def test_generic_weights_support_is_the_cell_support():
    from tnnflag.extremal import cell_support
    for seed in range(3):
        a = generic_weights(EX_V, EX_W, seed=seed)
        p = phi(EX_V, EX_W, a)
        assert {k: set(v) for k, v in p.support().items()} == \
            {k: set(v) for k, v in cell_support(EX_V, EX_W).sets.items()}


def test_ideal_elements_vanish_on_flags():
    """Every sampled combination stays inside the ideal: it evaluates to 0
    at the coordinates of any flag."""
    polys = ideal_element_sample(3, count=20, seed=5)
    assert len(polys) == 20
    flags = [random_flag(3, seed=s) for s in (1, 2, 3)]
    for poly in polys:
        for p in flags:
            total = Fraction(0)
            for coeff, mono in poly:
                term = Fraction(coeff)
                for I, exp in mono.items():
                    term *= p.coord(I) ** exp
                total += term
            assert total == 0


def test_ideal_element_sample_merges_like_terms():
    for poly in ideal_element_sample(3, count=30, seed=7):
        keys = [frozenset(mono.items()) for _, mono in poly]
        assert len(keys) == len(set(keys))
        assert all(c != 0 for c, _ in poly)
    with pytest.raises(ValueError):
        ideal_element_sample(5, count=1, seed=0)


def _trop_eval_poly_terms_reference(poly, p):
    """``trop_eval_poly_terms`` as it was: a product of ``Trop`` powers of
    ``p.coord`` per term."""
    out = []
    for coeff, mono in poly:
        val = p.one
        for I, e in mono.items():
            val = val * p.coord(I) ** e
        out.append((coeff, val))
    return out


def test_trop_eval_poly_terms_matches_the_trop_product():
    """Acceptance criterion 09's 50 polynomials per n, on trop_phi of
    every S3/S4 cell at its first draw: equal values, each a Trop of a
    Fraction or infinite."""
    for n in (3, 4):
        polys = ideal_element_sample(n, count=50, seed=909)
        for v, w in bruhat_pairs(n):
            a = generic_weights(v, w, seed=2000)
            q = trop_phi(v, w, {j: Trop.of(x) for j, x in a.items()})
            for poly in polys:
                got = trop_eval_poly_terms(poly, q)
                want = _trop_eval_poly_terms_reference(poly, q)
                assert got == want, (v, w, poly)
                assert [type(t.value) for _, t in got] == \
                    [type(t.value) for _, t in want], (v, w, poly)
