"""Differential test of the inverse walk.

`membership._solve` runs the cell's compiled walk
(the cached diagram's `walk`) with the semiring arithmetic written out,
reads each value by its position in the cell's block of the integer
view (realigning a block that lists other indices onto the cell's),
reads each size's unit as the walk meets it and keeps the classical
weights as reduced (p, q) int pairs. The callback walk it
replaced is frozen in `solve_reference.py`, and reads a dict by index:
the values of the frozen view (`view_reference.py`), of which the
library's walk is given the same ints as blocks (`values_blocks`). On every cell of S3-S5, 300
seeded cells of S6 and the S7 and S8 top cells, in both semirings, both
must give the same weights in the same key order: the pairs as positive
ints in lowest terms, equal to the reference's Fractions, and the same
tropical ints. The inputs are the integer views of `phi` and `trop_phi`
points and of copies with each size block scaled (some negated) or
shifted, so the units read are not 1 or 0. Broken inputs must raise the
same ValueError: a generating coordinate zeroed, dropped or negated, a
unit zeroed, and tropically a generating coordinate or a unit made
infinite. `psi`, `trop_psi` and `psi_monomials` must equal the
reference's on every cell too. On the same blocks of every one of those
inputs, `_solve` must also give what it gave when it read each value
against its size's unit (`ref_unit_solve`), and what it gave when it
walked the generators and found each value by bisection
(`ref_bisect_solve`): the same pairs or ints in the same key order, or
the same ValueError text. Blocks that list other indices than the
cell's are checked against both the same way, and must give the weights
of the point's own blocks, in the same key order: the greatest
non-generating index dropped, an index outside the cell's support added,
and only the independent generating indices kept.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from tnnflag.algebra import Trop
from tnnflag.membership import _solve, psi, trop_psi
from tnnflag.perms import bruhat_pairs, identity, longest_element
from tnnflag.plucker import phi, trop_phi
from tnnflag.wiring import build_diagram

from oracle_reference import psi_monomials
from solve_reference import (
    ref_bisect_solve, ref_psi, ref_psi_monomials, ref_solve, ref_trop_psi,
    ref_unit_solve,
)
from view_reference import ref_view, values_blocks
from walk_reference import generators


def _cells(n):
    if n <= 5:
        return bruhat_pairs(n)
    if n == 6:
        return random.Random(6).sample(bruhat_pairs(6), 300)
    return [(identity(n), longest_element(n))] * 3


def _outcome(solve, v, w, blocks, signed):
    try:
        return solve(v, w, blocks, signed)
    except ValueError as exc:
        return str(exc)


def _same_as_unit_walk(v, w, blocks, signed):
    """``_solve``'s outcome on ``blocks``, checked against the walk that
    read each value against its size's unit and the bisecting walk."""
    got = _outcome(_solve, v, w, blocks, signed)
    for ref in (ref_unit_solve, ref_bisect_solve):
        want = _outcome(ref, v, w, blocks, signed)
        assert got == want and (type(got) is str or list(got) == list(want)), \
            (v, w, blocks, ref.__name__)
    return got


def _ref_outcome(v, w, values, signed):
    try:
        return ref_solve(v, w, values, signed)
    except ValueError as exc:
        return str(exc)


def _check_pairs(got, want):
    assert list(got) == list(want)
    for j, pair in got.items():
        p, q = pair
        assert type(p) is int and type(q) is int and p > 0 and q > 0
        assert gcd(p, q) == 1 and Fraction(p, q) == want[j]


def _broken(values, gens, rng, signed):
    """Copies of ``values`` with a seeded generating coordinate or a seeded
    size's unit made unusable."""
    units = [g.index for g in gens if not g.weight_ids]
    I = rng.choice([g.index for g in gens if g.weight_ids] or units)
    U = rng.choice(units)
    dropped = {J: x for J, x in values.items() if J not in (I, U)}
    out = [{J: x for J, x in values.items() if J != I},
           {J: x for J, x in values.items() if J != U}, dropped]
    if signed:
        out += [{**values, I: 0}, {**values, I: -values[I]}, {**values, U: 0},
                {**values, U: -values[U]}]
    return out


def _realigned(values, gens, n, signed):
    """Copies of ``values`` whose blocks list other indices than the
    cell's: only the independent generating indices kept, the greatest
    non-generating index by (size, index) dropped, and the first index by
    (size, index) outside the support added. No seed is drawn."""
    generating = {g.index for g in gens}
    out = [{I: x for I, x in values.items() if I in generating}]
    rest = [I for I in values if I not in generating]
    if rest:
        drop = max(rest, key=lambda I: (len(I), I))
        out.append({I: x for I, x in values.items() if I != drop})
    outside = next((I for k in range(1, n) for I in combinations(range(1, n + 1), k)
                    if I not in values), None)
    if outside is not None:
        out.append({**values, outside: 7 if signed else 3})
    return out


def _scaled(values, rng, signed):
    """``values`` with each size block scaled by a seeded nonzero int
    (classically) or shifted by a seeded int (tropically)."""
    by = {k: rng.choice((-3, -2, 2, 5)) if signed else rng.randint(-9, 9)
          for k in {len(I) for I in values}}
    return {I: x * by[len(I)] if signed else x + by[len(I)]
            for I, x in values.items()}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_walk_matches_the_callback_walk(n):
    rng = random.Random(34 + n)
    errors = 0
    for c, (v, w) in enumerate(_cells(n)):
        gens = [g for g in generators(v, w) if g.in_svw]
        ids = build_diagram(v, w).weight_ids()
        a = {j: Fraction(rng.randint(1, 99), rng.randint(1, 9)) for j in ids}
        x = {j: Trop(q - 50) for j, q in a.items()}
        p, t = phi(v, w, a), trop_phi(v, w, x)
        for values, signed in ((ref_view(p)[1], True), (ref_view(t)[1], False)):
            for case in (values, _scaled(values, rng, signed)):
                got = _same_as_unit_walk(v, w, values_blocks(case, len(v)),
                                         signed)
                want = ref_solve(v, w, case, signed)
                if signed:
                    _check_pairs(got, want)
                    assert {j: Fraction(*q) for j, q in got.items()} == a
                else:
                    assert list(got.items()) == list(want.items())
            solved = list(got.items())
            for case in _realigned(values, gens, len(v), signed):
                got = _same_as_unit_walk(v, w, values_blocks(case, len(v)),
                                         signed)
                assert list(got.items()) == solved, (v, w, case)
            for case in _broken(values, gens, rng, signed):
                want = _ref_outcome(v, w, case, signed)
                errors += type(want) is str
                got = _same_as_unit_walk(v, w, values_blocks(case, len(v)),
                                         signed)
                if signed and type(got) is dict:
                    got = {j: Fraction(*x) for j, x in got.items()}
                assert got == want, (v, w, case)
        for got, want in ((psi(v, w, p), ref_psi(v, w, p)),
                          (trop_psi(v, w, t), ref_trop_psi(v, w, t))):
            assert list(got.items()) == list(want.items())
            assert [type(q) for q in got.values()] == [type(q) for q in want.values()]
        if c == 0 or n <= 6:
            got, want = psi_monomials(v, w), ref_psi_monomials(v, w)
            assert list(got.items()) == list(want.items())
    assert errors
