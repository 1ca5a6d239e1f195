"""The paper's two characterizations, checked both ways on vectors that the
library did not produce:

- tropical: a vector is in the nonnegative tropical flag variety (it
  reconstructs from a cell, which ``decide_trop`` certifies) iff every
  size block is nonempty and it positively solves every incidence relation
  of ``generate_relations(n)``, the nonnegative flag Dressian;
- classical: the flag of an invertible matrix, each size block signed so
  that its lexicographically first nonzero coordinate is positive, is
  totally nonnegative (``decide_tnn`` certifies it) iff every coordinate
  is >= 0.

Once coordinates can be infinite, the three-term relations alone do not
decide membership at n = 5; a pinned vector shows it.
"""

import itertools
import random
from fractions import Fraction

from tnnflag.algebra import Trop
from tnnflag.membership import decide_tnn, decide_trop
from tnnflag.oracle import _top_minors, determinant_cofactor
from tnnflag.perms import bruhat_pairs, identity, longest_element
from tnnflag.plucker import (
    PlueckerVector, TropPlueckerVector, all_proper_indices,
    generate_relations, trop_phi,
)
from tnnflag.wiring import build_diagram

from oracle_reference import trop_check_relation


def _in_dressian(p: TropPlueckerVector, three_term_only=False) -> bool:
    sup = p.support()
    return all(sup[k] for k in range(1, p.n)) and all(
        trop_check_relation(rel, p, True)
        for rel in generate_relations(p.n, three_term_only))


def _trop(n, values) -> TropPlueckerVector:
    """The vector with the given finite values; None is infinity."""
    return TropPlueckerVector(n, {I: Trop.of(x) for I, x in values.items()
                                  if x is not None})


def _assert_trop_theorem(vectors) -> int:
    members = 0
    for p in vectors:
        member = decide_trop(p).verdict == "member"
        assert member == _in_dressian(p), p
        members += member
    return members


def test_tropical_theorem_on_the_n3_box():
    """Every vector in {inf, 0, 1, 2}^6 at n = 3."""
    indices = list(all_proper_indices(3))
    box = (_trop(3, dict(zip(indices, values)))
           for values in itertools.product((None, 0, 1, 2),
                                           repeat=len(indices)))
    assert _assert_trop_theorem(box) == 653


def _n4_vectors(rng):
    """trop_phi at weights in {0, 1, 2} on every S4 cell, the same with one
    finite coordinate moved by +-1, and sparse random vectors."""
    indices = list(all_proper_indices(4))
    for v, w in bruhat_pairs(4):
        weights = {j: Trop.of(rng.randint(0, 2))
                   for j in build_diagram(v, w).weight_ids()}
        p = trop_phi(v, w, weights)
        yield p
        values = {I: x.value for I, x in p.coords.items()}
        I = rng.choice(sorted(values))
        values[I] += rng.choice((-1, 1))
        yield _trop(4, values)
    for _ in range(400):
        yield _trop(4, {I: rng.randint(0, 2) for I in indices
                        if rng.random() < 0.4})


def test_tropical_theorem_on_seeded_n4_vectors():
    assert _assert_trop_theorem(_n4_vectors(random.Random(4))) == 313


def test_three_term_relations_do_not_decide_n5():
    """This vector positively solves all 50 three-term relations, yet no
    cell gives it: it violates 6 of the 66 incidence relations, among them
    the four-term relation r = 1, s = 3, J = 1234."""
    p = _trop(5, {(3,): 1, (3, 5): 0, (1, 2, 4): 1, (1, 2, 4, 5): 0,
                  (1, 2, 3, 4): 1})
    three_term = generate_relations(5, three_term_only=True)
    assert len(three_term) == 50 and _in_dressian(p, three_term_only=True)
    violated = [rel for rel in generate_relations(5)
                if not trop_check_relation(rel, p, True)]
    assert len(generate_relations(5)) == 66 and len(violated) == 6
    assert any((rel.r, rel.s, rel.I, rel.J) == (1, 3, (), (1, 2, 3, 4))
               and len(rel.terms) == 4 for rel in violated)
    assert decide_trop(p).witness == {
        "type": "no-cell", "reason": "Gale-extreme indices do not form a flag"}


def _signed_flags(n, count, rng):
    """Flags of seeded invertible integer matrices with entries in
    {-1, 0, 1, 2}, each size block's sign flipped so that its
    lexicographically first nonzero coordinate is positive."""
    made = 0
    while made < count:
        m = [[Fraction(rng.randint(-1, 2)) for _ in range(n)]
             for _ in range(n)]
        if determinant_cofactor(m) == 0:
            continue
        coords = _top_minors(m).coords
        first = {}
        for I in sorted(coords):
            first.setdefault(len(I), coords[I])
        yield PlueckerVector(n, {I: x if first[len(I)] > 0 else -x
                                 for I, x in coords.items()})
        made += 1


def test_classical_theorem_on_seeded_matrices():
    for n, count, expected in ((3, 1500, 431), (4, 600, 31)):
        members = 0
        for p in _signed_flags(n, count, random.Random(n)):
            member = decide_tnn(p).verdict == "member"
            assert member == all(x >= 0 for x in p.coords.values()), p
            members += member
        assert members == expected, (n, members)


def test_finite_points_are_decided_by_three_term_relations():
    """Joswig-Loho-Luber-Olarte (2021): on vectors with every coordinate
    finite, the positive flag Dressian is cut out by the three-term
    relations alone, and every point of it lies in the top cell. Checked
    on trop_phi of id <= w0 at n = 4 with weights in {0..3}, up to two
    coordinates then moved by +-1: 626 of the 1500 vectors are members."""
    rng = random.Random(46)
    v, w = identity(4), longest_element(4)
    ids = build_diagram(v, w).weight_ids()
    members = 0
    for _ in range(1500):
        values = {I: x.value for I, x in trop_phi(
            v, w, {j: Trop.of(rng.randint(0, 3)) for j in ids}).coords.items()}
        assert len(values) == 14
        for I in rng.sample(sorted(values), rng.randint(0, 2)):
            values[I] += rng.choice((-1, 1))
        p = _trop(4, values)
        cert = decide_trop(p)
        assert (cert.verdict == "member") == _in_dressian(p, True), p
        if cert.verdict == "member":
            assert cert.cell == (v, w), p
            members += 1
    assert members == 626, members
