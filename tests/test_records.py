"""The library's value records behave as their callers rely on: they
survive ``pickle`` (a process pool ships them between workers), the
immutable ones refuse assignment, hashing and equality follow their
fields, and ``repr`` keeps the ``Name(field=value, ...)`` text."""

import pickle
from fractions import Fraction

import pytest

from tnnflag.algebra import TROP_INF, Trop
from tnnflag.extremal import cell_support, extremal_indices
from tnnflag.membership import decide_tnn
from tnnflag.oracle import LaurentMonomial, generators, graph_extremal_collections
from tnnflag.perms import canonical_w0_word, positive_distinguished_subexpression
from tnnflag.plucker import (
    PlueckerVector, TropPlueckerVector, generate_relations, phi, trop_phi,
)
from tnnflag.wiring import build_diagram

EX_V, EX_W = (1, 3, 2, 4), (4, 2, 1, 3)
EX_A = {1: Fraction(2), 2: Fraction(3), 4: Fraction(5)}
EX_P = phi(EX_V, EX_W, EX_A)
EX_Q = trop_phi(EX_V, EX_W, {j: Trop.of(x) for j, x in EX_A.items()})

PICKLED = {
    "trop": Trop.of(3),
    "trop-inf": TROP_INF,
    "monomial": LaurentMonomial(2, {1: 1, (1, 2): -1}),
    "diagram": build_diagram(EX_V, EX_W),
    "generators": generators(EX_V, EX_W),
    "pluecker": EX_P,
    "trop-pluecker": EX_Q,
    "support": cell_support(EX_V, EX_W),
    "certificate": decide_tnn(EX_P),
}


@pytest.mark.parametrize("name", PICKLED)
def test_pickle_round_trip(name):
    obj = PICKLED[name]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert back == obj and type(back) is type(obj), protocol


def _records():
    """One instance of every NamedTuple record the library defines."""
    d = build_diagram(EX_V, EX_W)
    collection = graph_extremal_collections(d, 1)[-1]
    word = canonical_w0_word(4)
    return [word, positive_distinguished_subexpression(EX_W, word),
            d.edges[0], d.neg_segments[0], d, collection.paths[0],
            collection, generate_relations(4)[0], cell_support(EX_V, EX_W),
            extremal_indices(EX_P)[0], generators(EX_V, EX_W)[-1],
            decide_tnn(EX_P)]


def test_trop_and_records_refuse_assignment():
    t = Trop.of(3)
    with pytest.raises(AttributeError):
        t.value = Fraction(4)
    with pytest.raises(AttributeError):
        del t.value
    assert t == Trop.of(3)
    records = _records()
    assert len({type(r).__name__ for r in records}) == 12
    for r in records:
        field = r._fields[0]
        with pytest.raises(AttributeError):
            setattr(r, field, None)


def test_hashing():
    assert hash(Trop.of(3)) == hash((Fraction(3),))
    assert hash(TROP_INF) == hash((None,))
    assert len({Trop.of(3), Trop(Fraction(3)), TROP_INF, Trop(None)}) == 2
    with pytest.raises(TypeError):
        hash(LaurentMonomial(2, {1: 1}))


def test_equality_follows_class_and_fields():
    assert PlueckerVector(3, {}) != TropPlueckerVector(3, {})
    assert PlueckerVector(3, {}) == PlueckerVector(3)
    assert LaurentMonomial(2, {1: 1, 2: 0}) == LaurentMonomial(2, {1: 1})
    assert LaurentMonomial(2, {1: 1}) != LaurentMonomial(3, {1: 1})
    assert Trop.of(3) != Fraction(3)


def test_repr_text():
    assert repr(Trop.of(3)) == "Trop(value=Fraction(3, 1))"
    assert repr(LaurentMonomial(2, {1: 1, (1, 2): -1, 3: 0})) == (
        "LaurentMonomial(coefficient=Fraction(2, 1), "
        "exponents={1: 1, (1, 2): -1})")
    assert repr(decide_tnn(EX_P)) == (
        "CellCertificate(verdict='member', "
        "cell=((1, 3, 2, 4), (4, 2, 1, 3)), "
        "weights={2: Fraction(3, 1), 4: Fraction(5, 1), 1: Fraction(2, 1)}, "
        "witness=None)")
    assert repr(PlueckerVector(3, {(1,): Fraction(1)})) == \
        "PlueckerVector(n=3, coords={(1,): Fraction(1, 1)})"
    assert repr(build_diagram(EX_V, EX_W).edges[0]) == \
        "VerticalEdge(weight_id=1, key=1, column=4, lower=1, upper=3)"
