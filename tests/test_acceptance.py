"""
Acceptance gate: eleven end-to-end criteria, one test (and one pass/fail
line under ``pytest -v``) each. All checks are exact -- zero numeric
tolerance -- except the two stated runtime budgets.
"""

import random
import time
from fractions import Fraction

from tnnflag.algebra import Trop
from tnnflag.extremal import cell_support, extremal_index_set, s_vw
from tnnflag.membership import decide_tnn, decide_trop, propagate_three_term, psi
from tnnflag.oracle import (
    determinant_cofactor, enumerate_path_collections, generic_weights,
    mr_matrix, support_oracle,
)
from tnnflag.perms import all_perms, bruhat_leq, identity, longest_element
from tnnflag.plucker import PlueckerVector, generate_relations, phi, trop_phi
from tnnflag.wiring import build_diagram

from oracle_reference import (
    check_relation, ideal_element_sample, path_sum_matrix, psi_monomials,
    random_flag, trop_check_relation, trop_eval_poly_terms, trop_terms_verdict,
)
from walk_reference import graph_extremal_collections

EX_V, EX_W = (1, 3, 2, 4), (4, 2, 1, 3)


def _cells(n):
    ps = list(all_perms(n))
    return [(v, w) for v in ps for w in ps if bruhat_leq(v, w)]


def _report(num, message):
    print(f"[PASS] criterion {num}: {message}")


def test_criterion_01_example_cell_matrix():
    """The 4x4 cell matrix matches its closed form at 5 random weight
    triples, entrywise exact, in under a second."""
    rng = random.Random(101)
    start = time.time()
    for _ in range(5):
        a1, a2, a4 = (Fraction(rng.randint(1, 99), rng.randint(1, 9))
                      for _ in range(3))
        z, one = Fraction(0), Fraction(1)
        assert mr_matrix(EX_V, EX_W, {1: a1, 2: a2, 4: a4}) == [
            [one, a4, a1, z],
            [z, z, one, z],
            [z, -one, z, a2],
            [z, z, z, one],
        ]
    elapsed = time.time() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, "4x4 cell matrix exact at 5 random weight triples, "
               f"{elapsed * 1000:.0f} ms")


def test_criterion_02_three_strand_path_matrix():
    """Path sums of the full 3-strand network give [[1,a+c,ab],[0,1,b],
    [0,0,1]]; the rows {1,3} / columns {2,3} minor is a+c."""
    a, b, c = Fraction(2), Fraction(7, 3), Fraction(5)
    v, w = identity(3), longest_element(3)
    m = path_sum_matrix(build_diagram(v, w), {1: a, 2: b, 3: c})
    z, one = Fraction(0), Fraction(1)
    assert m == [[one, a + c, a * b], [z, one, b], [z, z, one]]
    minor = [[m[0][1], m[0][2]], [m[2][1], m[2][2]]]
    assert determinant_cofactor(minor) == a + c
    _report(2, "3-strand path matrix and its {1,3}x{2,3} minor exact")


def test_criterion_03_top_cell_inverse_monomials():
    """psi on the top n=3 cell: a2 = P_13, a3 = P_23/P_13, a1 = P_3/P_13,
    and the dependent coordinate P_2 = (P_3 + P_23)/P_13."""
    v, w = identity(3), longest_element(3)
    solved = psi_monomials(v, w)
    assert {j: m.exponents for j, m in solved.items()} == {
        2: {(1, 3): 1},
        3: {(2, 3): 1, (1, 3): -1},
        1: {(3,): 1, (1, 3): -1},
    }
    assert all(m.coefficient == 1 for m in solved.values())
    rng = random.Random(103)
    for _ in range(5):
        a = {j: Fraction(rng.randint(1, 50), rng.randint(1, 7))
             for j in (1, 2, 3)}
        p = phi(v, w, a)
        assert p.coord((2,)) == \
            (p.coord((3,)) + p.coord((2, 3))) / p.coord((1, 3))
    _report(3, "top-cell inverse is the stated Laurent monomials; "
               "P_2 reconstructs exactly")


def test_criterion_04_roundtrip_soundness():
    """psi(phi(a)) = a and decide_tnn(phi(a)) certifies (v, w), for every
    Bruhat pair of S3 and S4 at 10 random weight draws; n=4 under 2 min."""
    for n in (3, 4):
        start = time.time()
        for v, w in _cells(n):
            for t in range(10):
                a = generic_weights(v, w, seed=1000 + t)
                p = phi(v, w, a)
                assert psi(v, w, p) == a, (v, w)
                cert = decide_tnn(p)
                assert cert.verdict == "member" and cert.cell == (v, w)
                assert cert.weights == a
        elapsed = time.time() - start
        if n == 4:
            assert elapsed < 120, f"n=4 took {elapsed:.1f}s"
    _report(4, "exact roundtrip on all S3/S4 cells x 10 draws, "
               f"n=4 in {elapsed:.1f}s < 120s")


def test_criterion_05_support_oracle_agreement():
    """Generic-weight supports equal exhaustive Bruhat-interval prefixes."""
    for n in (3, 4):
        for v, w in _cells(n):
            p = phi(v, w, generic_weights(v, w, seed=7))
            sup = p.support()
            for k in range(1, n):
                assert sup[k] == support_oracle(v, w, k), (v, w, k)
    _report(5, "supports match the exhaustive oracle on all S3/S4 cells")


def test_criterion_06_relations_vanish_on_random_flags():
    """All incidence relations evaluate to exactly 0 on 100 random
    invertible matrices for each of n = 4 and n = 5."""
    for n in (4, 5):
        rels = generate_relations(n)
        for seed in range(100):
            p = random_flag(n, seed=seed)
            for rel in rels:
                assert check_relation(rel, p) == 0, (n, seed, rel)
    _report(6, "all incidence relations vanish on 100 random flags "
               "each at n=4 and n=5")


def test_criterion_07_top_cell_extremal_counts():
    """Top cells have C(n,2)+n extremal indices for n = 3, 4, 5, counting
    the (coordinate-excluded) full set once; Gale minima are included."""
    for n in (3, 4, 5):
        sup = cell_support(identity(n), longest_element(n))
        ext = extremal_index_set(sup)
        # {1..n} is a basis of the flag matroid but not a projective
        # coordinate, so the proper-index count is one short of C(n,2)+n
        assert len(ext) + 1 == n * (n - 1) // 2 + n, n
        for k in range(1, n):
            assert tuple(range(1, k + 1)) in ext
    _report(7, "top-cell extremal counts are C(n,2)+n for n=3,4,5 "
               "(full set counted by convention)")


def test_criterion_08_extremal_uniqueness():
    """Each extremal index of each S3/S4 cell is realized by exactly one
    path collection, and that collection is diagonal-plus-left-greedy."""
    for n in (3, 4):
        for v, w in _cells(n):
            d = build_diagram(v, w)
            sup = cell_support(v, w)
            ext = extremal_index_set(sup)
            by_size = {}
            for I in ext:
                by_size.setdefault(len(I), set()).add(I)
            for k, idxs in by_size.items():
                greedy = {tuple(sorted(c.sinks)): c
                          for c in graph_extremal_collections(d, k)}
                assert set(greedy) == idxs, (v, w, k)
                for I in idxs:
                    colls = enumerate_path_collections(d, range(1, k + 1), I)
                    assert len(colls) == 1, (v, w, I)
                    assert colls[0] == greedy[I], (v, w, I)
    _report(8, "every extremal index has a unique, left-greedy "
               "path collection on all S3/S4 cells")


def test_criterion_09_tropical_positivity():
    """trop_phi output positively satisfies every 3-term tropical relation
    and 50 sampled ideal-element tropicalizations, and decide_trop
    reconstructs it exactly; all S3/S4 cells x 10 draws."""
    for n in (3, 4):
        rels = generate_relations(n, True)
        polys = ideal_element_sample(n, count=50, seed=909)
        assert len(polys) == 50
        for v, w in _cells(n):
            for t in range(10):
                a = generic_weights(v, w, seed=2000 + t)
                q = trop_phi(v, w, {j: Trop.of(x) for j, x in a.items()})
                for rel in rels:
                    assert trop_check_relation(rel, q, positive=True), (v, w)
                for poly in polys:
                    _, pos = trop_terms_verdict(trop_eval_poly_terms(poly, q))
                    assert pos, (v, w, poly)
                cert = decide_trop(q)
                assert cert.verdict == "member" and cert.cell == (v, w)
    _report(9, "tropical relations, 50 ideal samples, and exact "
               "reconstruction hold on all S3/S4 cells x 10 draws")


def test_criterion_10_negative_controls():
    """The non-realizable flag-of-positroids support is rejected; a negated
    coordinate is rejected with a witness; the (1,1,2) pattern is a
    solution but not a positive one."""
    fake = PlueckerVector(3, {
        (1,): Fraction(1), (3,): Fraction(1),
        (1, 2): Fraction(1), (1, 3): Fraction(1), (2, 3): Fraction(1),
    })
    cert = decide_tnn(fake)
    assert cert.verdict == "non-member" and cert.witness is not None

    p = phi(EX_V, EX_W, {1: Fraction(2), 2: Fraction(3), 4: Fraction(5)})
    p.coords[(1, 3, 4)] = -p.coords[(1, 3, 4)]
    neg = decide_tnn(p)
    assert neg.verdict == "non-member"
    assert neg.witness["type"] == "negative-coordinate"
    assert neg.witness["index"] == "1,3,4"

    # Trop(x^2 - xz + y^2) at (x, y, z) = (1, 1, 2)
    x, y, z = Trop.of(1), Trop.of(1), Trop.of(2)
    terms = [(1, x.scale(2)), (-1, x * z), (1, y.scale(2))]
    assert trop_terms_verdict(terms) == (True, False)
    _report(10, "both synthetic rejections and the solution-but-not-"
                "positive pattern classified exactly")


def test_criterion_11_three_term_propagation():
    """Rebuilding every coordinate from the extremal values via three-term
    relations reproduces the parameterized vector exactly, all S3/S4 cells."""
    for n in (3, 4):
        for v, w in _cells(n):
            a = generic_weights(v, w, seed=31)
            p = phi(v, w, a)
            ext = extremal_index_set(cell_support(v, w))
            r = propagate_three_term({I: p.coord(I) for I in ext}, (v, w))
            assert r.coords == p.coords, (v, w)
    _report(11, "three-term propagation equals the direct "
                "parameterization on all S3/S4 cells")
