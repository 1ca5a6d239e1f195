"""`psi` and `trop_psi` are functions of the projective point.

Each size block of a point is projective: any positive multiple of it
(classically), or any shift of it (tropically), is the same point. On
every cell of S3 and S4 and a seeded sample of S5, a point of the cell
with each block scaled by its own seeded positive rational, or shifted
by its own seeded rational, must give back the weights it was built
from, the same weights the deciders certify, and, through `phi` or
`trop_phi`, the canonical form of the point; a classical block scaled
by a negative factor is the same point too. On a fresh `phi` or
`trop_phi` result the walk reads the raw sweep without rendering it.
A vector built in Python with a key that is not a tuple of ints, or of
size n, is a `ValueError` for every reader of its values.
"""

import random
from fractions import Fraction

import pytest

from tnnflag.algebra import Trop
from tnnflag.membership import decide_tnn, decide_trop, psi, trop_psi
from tnnflag.perms import bruhat_pairs
from tnnflag.plucker import PlueckerVector, TropPlueckerVector, phi, trop_phi
from tnnflag.wiring import build_diagram


def _cells():
    rng = random.Random(23)
    return bruhat_pairs(3) + bruhat_pairs(4) + rng.sample(bruhat_pairs(5), 40)


def test_psi_reads_the_projective_point():
    rng = random.Random(231)
    for v, w in _cells():
        ids = build_diagram(v, w).weight_ids()
        a = {j: Fraction(rng.randint(1, 30), rng.randint(1, 7)) for j in ids}
        fresh = phi(v, w, a)
        assert psi(v, w, fresh) == a and fresh._raw is not None, (v, w)
        factor = {k: Fraction(rng.randint(1, 50), rng.randint(1, 50))
                  for k in range(1, len(v))}
        q = PlueckerVector(len(v), {I: x * factor[len(I)]
                                    for I, x in fresh.coords.items()})
        got = psi(v, w, q)
        assert got == a == decide_tnn(q).weights, (v, w)
        assert phi(v, w, got) == q.canonicalize(), (v, w)
        k = rng.randrange(1, len(v))        # one block negated: the same point
        negated = PlueckerVector(len(v), {I: -x if len(I) == k else x
                                          for I, x in q.coords.items()})
        assert psi(v, w, negated) == a, (v, w)


def test_trop_psi_reads_the_projective_point():
    rng = random.Random(232)
    for v, w in _cells():
        ids = build_diagram(v, w).weight_ids()
        x = {j: Trop(Fraction(rng.randint(-20, 20), rng.randint(1, 7))) for j in ids}
        fresh = trop_phi(v, w, x)
        assert trop_psi(v, w, fresh) == x and fresh._raw is not None, (v, w)
        shift = {k: Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                 for k in range(1, len(v))}
        q = TropPlueckerVector(len(v), {I: Trop(t.value + shift[len(I)])
                                        for I, t in fresh.coords.items()})
        got = trop_psi(v, w, q)
        assert got == x == decide_trop(q).weights, (v, w)
        assert trop_phi(v, w, got) == q.canonicalize(), (v, w)


@pytest.mark.parametrize("cls", [PlueckerVector, TropPlueckerVector])
@pytest.mark.parametrize("bad", ["2", ("a",), ("b", 2), (1, 2, 3)])
def test_bad_keys_are_value_errors(cls, bad):
    """Each bad key beside a good one of its size (so the view cannot
    sort the block) and, for the deciders, alone in its size; a key of
    size n has no block."""
    one = cls.one
    mixed = cls(3, {(1,): one, bad: one, (1, 2): one})
    alone = cls(3, {bad: one, (1, 2): one})
    decide = decide_tnn if cls is PlueckerVector else decide_trop
    walk = psi if cls is PlueckerVector else trop_psi
    readers = [mixed.support, mixed.canonicalize, lambda: decide(mixed),
               lambda: walk((1, 2, 3), (2, 1, 3), mixed), lambda: decide(alone)]
    for read in readers:
        with pytest.raises(ValueError, match="bad index"):
            read()
