"""The tropical weights' one pass (``plucker._trop_ints``) against a
frozen copy of the two it replaced: ``_exact_weights`` with its tropical
branch, then ``_scale_to_ints``. Equal ints, of type int, and an equal
lcm; on weights that are not finite Trops of ints or Fractions, the same
ValueError, the first bad weight in the mapping's order being named.
And the classical weights' pairs (``plucker._exact_weights``), each
value read once by ``as_integer_ratio``, against a frozen copy that read
a Fraction's numerator and denominator: equal pairs of ints in the same
order, or the same ValueError, a bad type being named before a weight
that is not positive."""

import math
import random
from fractions import Fraction

import pytest

from tnnflag.algebra import TROP_INF, Trop
from tnnflag.plucker import _exact_weights, _trop_ints


def _two_pass_reference(x):
    out = {}
    for j, val in x.items():
        q = val.value if isinstance(val, Trop) else None
        if q is None and isinstance(val, Trop):
            raise ValueError("tropical weights must be finite")
        if type(q) is not int and not isinstance(q, Fraction):
            raise ValueError(f"weight {j}: expected a Trop of an int or "
                             f"Fraction, got {val!r}")
        out[j] = q
    L = math.lcm(*(q.denominator for q in out.values()))
    return {j: q.numerator * (L // q.denominator) for j, q in out.items()}, L


def _draw(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-50, 50)
    if kind == 1:
        return Fraction(rng.randint(-6, 6))       # an integer-valued Fraction
    return Fraction(rng.randint(-99, 99), rng.randint(1, 12))


def test_trop_ints_match_the_two_pass_reference():
    rng = random.Random(33)
    for size in [0, 1, 2, *range(3, 37)] * 20:
        x = {j: Trop(_draw(rng)) for j in rng.sample(range(1, 60), size)}
        got, expected = _trop_ints(x), _two_pass_reference(x)
        assert got == expected, x
        assert list(got[0]) == list(x), x
        assert all(type(c) is int for c in got[0].values()), x


@pytest.mark.parametrize("bad", [TROP_INF, Trop(0.5), Trop(True), Trop(None),
                                 Fraction(1), 2, None, "1"])
def test_trop_ints_raise_as_the_two_pass_reference(bad):
    good = [Trop(3), Trop(Fraction(5, 2)), Trop(Fraction(-1, 3))]
    for at in range(len(good) + 1):
        for other in (TROP_INF, Trop(0.25), Trop(4)):
            values = [*good[:at], bad, *good[at:], other]
            x = dict(zip([7, 2, 9, 4, 1], values))
            with pytest.raises(ValueError) as expected:
                _two_pass_reference(x)
            with pytest.raises(ValueError) as got:
                _trop_ints(x)
            assert str(got.value) == str(expected.value), x


def _two_property_reference(a):
    out, positive = {}, True
    for j, q in a.items():
        if type(q) is int:
            positive = positive and q > 0
            out[j] = q, 1
        elif isinstance(q, Fraction):
            positive = positive and q.numerator > 0
            out[j] = q.numerator, q.denominator
        else:
            raise ValueError(f"weight {j}: expected an int or Fraction, "
                             f"got {q!r}")
    if not positive:
        raise ValueError("weights must be strictly positive")
    return out


def _exact_outcome(f, a):
    try:
        out = f(a)
    except ValueError as exc:
        return str(exc)
    assert all(type(p) is int and type(q) is int for p, q in out.values()), a
    return list(out.items())


def test_exact_weights_match_the_two_property_reference():
    """The draws above, negative and zero values included, with a bad
    weight put at a seeded place in about every third mapping, and the
    same draws made positive."""
    rng = random.Random(42)
    bad = [0.5, True, "1/2", None, Trop(Fraction(1))]
    for size in [0, 1, 2, *range(3, 37)] * 20:
        a = {j: _draw(rng) for j in rng.sample(range(1, 60), size)}
        positive = {j: abs(q) or 1 for j, q in a.items()}
        if size and rng.randrange(3) == 0:
            a[rng.choice(list(a))] = rng.choice(bad)
        for case in (a, positive):
            assert _exact_outcome(_exact_weights, case) == \
                _exact_outcome(_two_property_reference, case), case
