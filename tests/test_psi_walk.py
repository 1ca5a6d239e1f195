"""Differential test of the inverse map.

`psi` and `trop_psi` solve the cell weights in one run of the cell's
compiled walk, and `psi_monomials` in one walk over the generators (the
frozen walk's, `walk_reference.py`, as the reference below reads). The
two passes they replace are written out below
as the frozen reference: the Laurent monomials first, then their values
at the coordinates. On every cell of S3, S4 and S5, in both semirings,
both must give equal weights, in the same key order and of the same
types, and raise the same ValueError when a generating coordinate is
zero (classically) or inf (tropically). The walk reads each size block
against its unit, so the reference is given the canonical point. With a
coordinate zeroed it is given the vector itself: each coordinate is then
a generating value or the semiring's zero, and the error names the first
zero one, which block scaling or shifting does not move.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from tnnflag.algebra import Trop
from tnnflag.extremal import s_vw
from tnnflag.membership import psi, trop_psi
from tnnflag.oracle import LaurentMonomial
from tnnflag.perms import bruhat_pairs
from tnnflag.plucker import PlueckerVector, TropPlueckerVector

from oracle_reference import psi_monomials
from walk_reference import generators


@lru_cache(maxsize=None)
def reference_monomials(v, w):
    solved = {}
    for gen in generators(v, w):
        if gen.new_weight_id is None:
            continue
        mono = LaurentMonomial(Fraction(1), {gen.index: 1})
        for wid in gen.weight_ids:
            if wid != gen.new_weight_id:
                mono = mono / solved[wid]
        solved[gen.new_weight_id] = mono
    return solved


def reference_solve_weights(v, w, p, usable, problem):
    values = {}
    for I in s_vw(v, w):
        val = p.coord(I)
        if not usable(val):
            raise ValueError(f"coordinate at generating index {I} {problem}")
        values[I] = val
    weights = {}
    for j, m in reference_monomials(v, w).items():
        x = p.one
        for I, e in m.exponents.items():
            x = x * values[I] ** e if e > 0 else x / values[I] ** -e
        weights[j] = x
    return weights


def reference_psi(v, w, p):
    return reference_solve_weights(v, w, p, lambda x: x > 0, "is not positive")


def reference_trop_psi(v, w, p):
    return reference_solve_weights(v, w, p, lambda x: not x.is_inf,
                                   "is infinite")


def _same(got, want):
    assert list(got) == list(want)
    assert list(got.values()) == list(want.values())
    assert [type(x) for x in got.values()] == [type(x) for x in want.values()]


def _outcome(fn, v, w, p):
    try:
        return fn(v, w, p)
    except ValueError as exc:
        return str(exc)


def _check(fn, ref, v, w, p, all_zero=True):
    """Equal weights on p and, for the reference, on the canonical point
    (the walk reads each block against its unit), and the same error on
    the same vector with each generating coordinate, and then (unless
    ``all_zero`` is false, when another vector with p's keys has checked
    that vector) all of them, set to the semiring's zero."""
    _same(fn(v, w, p), ref(v, w, p.canonicalize()))
    broken = [{**p.coords, I: p.zero} for I in p.coords]
    if all_zero:
        broken.append(dict.fromkeys(p.coords, p.zero))
    for coords in broken:
        q = type(p)(p.n, coords)
        got = _outcome(fn, v, w, q)
        assert isinstance(got, str) and got == _outcome(ref, v, w, q)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_walk_matches_two_pass_reference(n):
    rng = random.Random(n)
    for v, w in bruhat_pairs(n):
        gens = s_vw(v, w)
        mono, want = psi_monomials(v, w), reference_monomials(v, w)
        assert list(mono) == list(want)
        for j, m in mono.items():
            assert list(m.exponents.items()) == list(want[j].exponents.items())
            assert type(m.coefficient) is Fraction and m.coefficient == 1
        ints = PlueckerVector(n, {I: rng.randint(1, 9) for I in gens})
        rats = PlueckerVector(n, {I: Fraction(rng.randint(1, 9), rng.randint(1, 4))
                                  for I in gens})
        trops = TropPlueckerVector(n, {I: Trop.of(Fraction(rng.randint(-9, 9),
                                                            rng.randint(1, 4)))
                                       for I in gens})
        _check(psi, reference_psi, v, w, ints)
        _check(psi, reference_psi, v, w, rats, all_zero=False)  # same keys
        _check(trop_psi, reference_trop_psi, v, w, trops)
