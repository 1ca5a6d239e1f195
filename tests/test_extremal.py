import random
from fractions import Fraction

import pytest

from tnnflag.extremal import (
    SupportVector, cell_support, extremal_index_set, extremal_indices,
    generators, is_supported, precedes_key, s_vw, xi,
)
from tnnflag.perms import (
    all_perms, bruhat_leq, gale_leq, identity, length, longest_element,
)
from tnnflag.plucker import phi
from tnnflag.wiring import (
    build_diagram, collection_weight, enumerate_path_collections,
)

EX_V, EX_W = (1, 3, 2, 4), (4, 2, 1, 3)


def _cells(n):
    ps = list(all_perms(n))
    return [(v, w) for v in ps for w in ps if bruhat_leq(v, w)]


def test_cell_support_example_cell():
    sup = cell_support(EX_V, EX_W)
    assert sup.sets[1] == {(1,), (2,), (3,)}
    assert sup.sets[2] == {(1, 3), (2, 3)}
    assert sup.sets[3] == {(1, 2, 3), (1, 3, 4), (2, 3, 4)}


def test_cell_support_matches_oracle_s3():
    """Every cell of S3 and S4 and a seeded 20-cell sample of S5."""
    from tnnflag.oracle import support_oracle
    cells = _cells(3) + _cells(4) + random.Random(3).sample(_cells(5), 20)
    for v, w in cells:
        sup = cell_support(v, w)
        for k in range(1, len(v)):
            assert sup.sets[k] == support_oracle(v, w, k), (v, w, k)


def test_xi_example_cell():
    sup = cell_support(EX_V, EX_W)
    assert xi(sup, (1,)) == (3,)
    assert xi(sup, (3,)) == (3,)
    assert xi(sup, (1, 3)) == (2, 3)
    assert xi(sup, (1, 2, 3)) == (1, 3, 4)
    assert xi(sup, (1, 3, 4)) == (2, 3, 4)
    # xi fixes unsupported indices
    assert xi(sup, (2, 4)) == (2, 4)


def test_extremal_chains_example_cell():
    chains = {ch.size: ch.chain for ch in extremal_indices(cell_support(EX_V, EX_W))}
    assert chains[1] == ((1,), (3,))
    assert chains[2] == ((1, 3), (2, 3))
    assert chains[3] == ((1, 2, 3), (1, 3, 4), (2, 3, 4))


def test_chain_order_is_gale_and_precedes_order():
    """Within one size, the xi chain is Gale-increasing and agrees with the
    traversal sort key."""
    for v, w in _cells(4):
        for ch in extremal_indices(cell_support(v, w)):
            for a, b in zip(ch.chain, ch.chain[1:]):
                assert gale_leq(a, b) and a != b
            assert list(ch.chain) == sorted(ch.chain, key=precedes_key)


def test_extremal_requires_flag_matroid():
    broken = SupportVector(4, {1: frozenset({(1,)}),
                               2: frozenset({(1, 4), (2, 3)}),
                               3: frozenset({(1, 2, 4)})})
    with pytest.raises(ValueError):
        extremal_indices(broken)


def test_s_vw_example_cell():
    assert set(s_vw(EX_V, EX_W)) == {
        (1, 2, 3), (1, 3, 4), (2, 3, 4), (1, 3), (1,), (3,)}


def test_s_vw_counts():
    for v, w in _cells(3) + _cells(4):
        assert len(s_vw(v, w)) == (len(v) - 1) + (length(w) - length(v))


def test_generators_solve_every_weight_once():
    for v, w in _cells(4):
        gens = generators(v, w)
        fresh = [g.new_weight_id for g in gens if g.new_weight_id is not None]
        assert len(fresh) == len(set(fresh)) == length(w) - length(v)


def test_extremal_coordinates_are_monomials():
    """At a parameterized point, each extremal coordinate is the product of
    the weights on its unique collection (exactly, after normalization)."""
    rng = random.Random(9)
    for v, w in _cells(3):
        a = {j: Fraction(rng.randint(1, 9)) for j in build_diagram(v, w).weight_ids()}
        p = phi(v, w, a)
        for g in generators(v, w):
            expected = Fraction(1)
            for wid, exp in g.monomial.exponents.items():
                expected *= a[wid] ** exp
            assert p.coord(g.index) == expected, (v, w, g.index)


def _assert_generators_match_enumeration(cells):
    """The generators' indices are the Xi chains of the cell support, each
    collection is the only one the enumeration finds for its index, and its
    signed weight is the generator's plain positive monomial."""
    for v, w in cells:
        d = build_diagram(v, w)
        gens = generators(v, w)
        assert {g.index for g in gens} == \
            extremal_index_set(cell_support(v, w)), (v, w)
        for g in gens:
            assert enumerate_path_collections(
                d, range(1, len(g.index) + 1), g.index) == [g.collection], \
                (v, w, g.index)
            mono = collection_weight(g.collection, d)
            assert mono.coefficient == 1, (v, w, g.index)
            assert mono.exponents == g.monomial.exponents, (v, w, g.index)


def test_generators_match_enumeration_on_s3_s4():
    _assert_generators_match_enumeration(_cells(3) + _cells(4))


def test_generators_match_enumeration_on_s5_sample():
    sample = random.Random(55).sample(_cells(5), 60)
    _assert_generators_match_enumeration(
        sample + [(identity(5), longest_element(5))])


def test_top_cell_extremal_count():
    for n in (3, 4, 5):
        ext = extremal_index_set(cell_support(identity(n), longest_element(n)))
        # the full set [n] is a basis but not a proper coordinate
        assert len(ext) + 1 == n * (n - 1) // 2 + n


def test_is_supported_dispatch():
    sup = cell_support(EX_V, EX_W)
    assert is_supported(sup, (3, 1))          # sorts its argument
    p = phi(EX_V, EX_W, {1: Fraction(1), 2: Fraction(1), 4: Fraction(1)})
    assert is_supported(p, (2, 3)) and not is_supported(p, (2, 4))
