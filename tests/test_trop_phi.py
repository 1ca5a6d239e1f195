"""trop_phi (the edge sweep) against the enumeration oracle, and the sweep
at a size the enumeration cannot reach in a test."""

import random
from fractions import Fraction

from tnnflag.algebra import Trop
from tnnflag.membership import decide_trop
from tnnflag.oracle import generic_weights, trop_phi_enumerated
from tnnflag.perms import all_perms, bruhat_leq, identity, longest_element
from tnnflag.plucker import phi, trop_phi
from tnnflag.wiring import build_diagram

# numerator ranges of the three draws per cell: positive, with zeros, mixed sign
DRAWS = ((1, 9), (0, 2), (-6, 6))


def _cells(n):
    ps = list(all_perms(n))
    return [(v, w) for v in ps for w in ps if bruhat_leq(v, w)]


def _assert_matches_oracle(cells, seed):
    rng = random.Random(seed)
    for v, w in cells:
        ids = build_diagram(v, w).weight_ids()
        for lo, hi in DRAWS:
            x = {j: Trop(Fraction(rng.randint(lo, hi), rng.randint(1, 3)))
                 for j in ids}
            assert trop_phi(v, w, x).coords == \
                trop_phi_enumerated(v, w, x).coords, (v, w, x)


def test_trop_phi_matches_enumeration_on_s3_s4():
    _assert_matches_oracle(_cells(3) + _cells(4), seed=41)


def test_trop_phi_matches_enumeration_on_s5_sample():
    cells = _cells(5)
    sample = random.Random(5).sample(cells, 60)
    _assert_matches_oracle(sample + [(identity(5), longest_element(5))], seed=51)


def test_trop_phi_top_cell_s7():
    v, w = identity(7), longest_element(7)
    a = generic_weights(v, w, seed=7)
    q = trop_phi(v, w, {j: Trop(x) for j, x in a.items()})
    assert q.support() == phi(v, w, a).support()
    cert = decide_trop(q)
    assert cert.verdict == "member" and cert.cell == (v, w)
