"""The integer sweep behind phi and trop_phi against the oracles, on
weights that make clearing denominators hard: pairwise-coprime prime
denominators whose lcm exceeds 2**64, numerators above 2**64, plain ints,
and negative, zero and mixed tropical weights."""

import math
import random
from fractions import Fraction

import pytest

from tnnflag.algebra import Trop
from tnnflag.membership import decide_tnn, decide_trop
from tnnflag.oracle import phi_minors, trop_phi_enumerated
from tnnflag.perms import all_perms, bruhat_leq, identity, longest_element
from tnnflag.plucker import phi, trop_phi
from tnnflag.wiring import build_diagram

# Mersenne primes; the first alone exceeds 2**64
MERSENNE = [2 ** p - 1 for p in (89, 61, 107, 127, 521, 607, 1279)]
SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73]

# cells whose edges span 2-3 strands across several -1 segments
NEGATIVE_SEGMENT_CELLS = [((3, 5, 2, 4, 1), (5, 4, 2, 3, 1)),
                          ((3, 2, 1, 5, 4), (5, 4, 2, 3, 1))]


def _cells(n):
    ps = list(all_perms(n))
    return [(v, w) for v in ps for w in ps if bruhat_leq(v, w)]


def _classical_draws(ids, rng, denominators):
    """(name, weights) for each classical family on the weight ids."""
    yield "coprime prime denominators", {
        j: Fraction(rng.randint(1, 50), q) for j, q in zip(ids, denominators)}
    yield "numerators above 2**64", {
        j: Fraction(2 ** 64 + rng.randint(1, 10 ** 6), rng.randint(1, 9))
        for j in ids}
    yield "plain ints", {j: rng.randint(1, 30) for j in ids}


def _tropical_draws(ids, rng, denominators):
    """(name, weights) for each tropical family on the weight ids."""
    yield "negative", {j: Trop(Fraction(-rng.randint(1, 50), q))
                       for j, q in zip(ids, denominators)}
    yield "zero", {j: Trop(rng.choice([0, Fraction(0)])) for j in ids}
    yield "mixed", {j: Trop(rng.choice([
        rng.randint(-9, 9),
        Fraction(rng.randint(-9, 9), q),
        Fraction(rng.choice([-1, 1]) * (2 ** 64 + rng.randint(0, 99)), q),
    ])) for j, q in zip(ids, denominators)}


def _assert_kernel_matches_oracles(cells, seed):
    rng = random.Random(seed)
    for v, w in cells:
        ids = build_diagram(v, w).weight_ids()
        if ids:
            assert math.lcm(*MERSENNE[:len(ids)]) > 2 ** 64
        for name, a in _classical_draws(ids, rng, MERSENNE):
            assert phi(v, w, a).coords == phi_minors(v, w, a).coords, \
                (v, w, name)
        for name, x in _tropical_draws(ids, rng, MERSENNE):
            assert trop_phi(v, w, x).coords == \
                trop_phi_enumerated(v, w, x).coords, (v, w, name)


def test_kernel_matches_oracles_on_negative_segment_cells():
    _assert_kernel_matches_oracles(NEGATIVE_SEGMENT_CELLS, seed=35)


@pytest.mark.parametrize("n", [3, 4])
def test_kernel_matches_oracles_on_every_cell(n):
    _assert_kernel_matches_oracles(_cells(n), seed=n)


def test_kernel_round_trips_the_s7_top_cell():
    """phi and trop_phi at S7 scale, through the deciders: every draw is
    certified in its cell with its own weights back."""
    v, w = identity(7), longest_element(7)
    ids = build_diagram(v, w).weight_ids()
    assert math.lcm(*SMALL_PRIMES[:len(ids)]) > 2 ** 64
    rng = random.Random(7)
    for name, a in _classical_draws(ids, rng, SMALL_PRIMES):
        cert = decide_tnn(phi(v, w, a))
        assert cert.verdict == "member" and cert.cell == (v, w), name
        assert cert.weights == a, name
    for name, x in _tropical_draws(ids, rng, SMALL_PRIMES):
        cert = decide_trop(trop_phi(v, w, x))
        assert cert.verdict == "member" and cert.cell == (v, w), name
        assert cert.weights == x, name
