"""Differential test of the one normalizer behind `canonicalize` and the
first read of `coords`.

Both build each size block's coordinates from the vector's integer view
(`_Vector._int_view`). The reference is `oracle.normalize_blocks`, the
semiring loop on `p.coords` that multiplies each block by one / unit.
They must give equal coordinates, in equal dict order, and equal
`to_json_dict`, on every S3-S5 cell, one input kind per vector in turn:

- the raw sweep of `phi` and `trop_phi`, whose first read of `coords` is
  compared with the reference applied to the sweep's unnormalized values;
- those vectors canonicalized before and after that read, and copies
  given their coordinates;
- blocks scaled to ints (classically, some by a negative factor) or
  shifted (tropically, some to Trops of ints), and explicit zero entries;

and on `random_flag`, which is not normalized and has negative
coordinates. `support()` and `canonicalize()` must leave a fresh vector
unrendered, and `support()` must equal the support of a rendered copy.
Every vector the library builds lists each size block in lexicographic
order: `phi`, `trop_phi`, `canonicalize()`, `from_json_dict` and both
propagations are checked on every fifth vector.
"""

import random
from fractions import Fraction

from tnnflag.algebra import TROP_INF, Trop
from tnnflag.membership import propagate_three_term, trop_propagate_three_term
from tnnflag.oracle import normalize_blocks
from tnnflag.perms import bruhat_pairs
from tnnflag.plucker import (
    PlueckerVector, TropPlueckerVector, all_proper_indices, phi, trop_phi,
)
from tnnflag.wiring import build_diagram

from oracle_reference import random_flag
from sweep_reference import raw_blocks, raw_sweep
from walk_reference import generators


def _check(p):
    """``p.canonicalize()`` agrees with the reference on p."""
    ours, ref = p.canonicalize(), normalize_blocks(p)
    assert list(ours.coords.items()) == list(ref.coords.items())
    assert ours.to_json_dict() == ref.to_json_dict()


def _unnormalized(p):
    """The vector of p's raw sweep values, each block as the sweep left
    it: the int raw_I classically, raw_I / L tropically."""
    raw, L = raw_sweep(p)
    blocks = raw_blocks(p.n, raw, 0 if p.signed else None)
    return type(p)(p.n, {I: r if p.signed else Trop(Fraction(r, L))
                         for found in blocks for I, r in found})


def _scaled(p, rng):
    """p with each size block times a nonzero int (some negative) that
    makes it integral, its coordinates then Python ints."""
    factors = {k: rng.choice((1, -1, 3, -7)) for k in range(1, p.n)}
    for I, x in p.coords.items():
        factors[len(I)] *= x.denominator
    return PlueckerVector(p.n, {I: int(x * factors[len(I)])
                                for I, x in p.coords.items()})


def _shifted(p, rng):
    """p with each size block shifted by its own constant; the blocks of
    even size hold Trops of ints when the shift makes them integral."""
    shifts = {k: Fraction(rng.randint(-9, 9), rng.randint(1, 3))
              for k in range(1, p.n)}
    coords = {}
    for I, t in p.coords.items():
        x = t.value + shifts[len(I)]
        coords[I] = Trop(x.numerator if x.denominator == 1 and len(I) % 2
                         else x)
    return TropPlueckerVector(p.n, coords)


def _with_zeros(p):
    """p with an explicit zero entry at every unsupported index."""
    coords = dict(p.coords)
    for I in all_proper_indices(p.n):
        coords.setdefault(I, p.zero)
    return type(p)(p.n, coords)


def _read(p):
    """p after its first read of ``coords``."""
    assert p.coords is not None
    return p


# the inputs canonicalized in turn: the raw sweep before its first read
# of ``coords`` (which renders it first) and after it, a copy given its
# coordinates, the blocks scaled or shifted, explicit zero entries
VARIANTS = (lambda p, rng: p,
            lambda p, rng: _read(p),
            lambda p, rng: type(p)(p.n, dict(p.coords)),
            lambda p, rng: (_scaled if p.signed else _shifted)(p, rng),
            lambda p, rng: _with_zeros(p))


def _assert_lexicographic(p):
    assert list(p.coords) == sorted(p.coords, key=lambda I: (len(I), I))


def _check_lexicographic(fresh, cell, rng):
    """Each vector built from ``fresh``, a result of ``phi`` or
    ``trop_phi`` in ``cell``, lists each size block in lexicographic
    order: its ``canonicalize()``, which leaves it unrendered; ``fresh``
    itself; ``from_json_dict`` on its JSON with the keys shuffled; and the
    propagation from its values at the extremal indices."""
    _assert_lexicographic(fresh.canonicalize())
    assert fresh._raw is not None, "canonicalize() rendered the raw sweep"
    _assert_lexicographic(fresh)
    obj = fresh.to_json_dict()
    items = list(obj["coords"].items())
    rng.shuffle(items)
    obj["coords"] = dict(items)
    _assert_lexicographic(type(fresh).from_json_dict(obj))
    propagate = (propagate_three_term if fresh.signed
                 else trop_propagate_three_term)
    values = {g.index: fresh.coord(g.index) for g in generators(*cell)}
    _assert_lexicographic(propagate(values, cell))


def _weights(ids, rng, tropical):
    if tropical:
        return {j: Trop(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
                for j in ids}
    return {j: Fraction(rng.randint(1, 30), rng.randint(1, 6)) for j in ids}


def test_normalizer_matches_the_semiring_loop_on_every_s3_to_s5_cell():
    """Both sides of every S3 and S4 cell and one side of every S5 cell,
    in turn, each read against the reference, and every fifth vector
    canonicalized as one of ``VARIANTS`` in turn, so that each variant
    meets both sides: the rest would cost the suite about 2 s more."""
    rng = random.Random(201)
    cells = bruhat_pairs(3) + bruhat_pairs(4) + bruhat_pairs(5)
    count = 0
    for i, (v, w) in enumerate(cells):
        ids = build_diagram(v, w).weight_ids()
        for tropical in (False, True) if len(v) < 5 else (i % 2 == 1,):
            make, weights = (trop_phi if tropical else phi), \
                _weights(ids, rng, tropical)
            # the first read of ``coords``, against the reference on the
            # sweep's unnormalized values
            ref = normalize_blocks(_unnormalized(make(v, w, weights)))
            assert list(make(v, w, weights).coords.items()) == \
                list(ref.coords.items())
            if count % 5 == 0:
                variant = VARIANTS[count // 5 % len(VARIANTS)]
                _check(variant(make(v, w, weights), rng))
                _check_lexicographic(make(v, w, weights), (v, w), rng)
            count += 1


def test_normalizer_on_random_flags():
    for n in (3, 4, 5):
        for seed in range(4):
            p = random_flag(n, seed)
            assert any(x < 0 for x in p.coords.values())
            _check(p)
            _check(_with_zeros(p))


def test_support_reads_the_raw_sweep_without_rendering():
    rng = random.Random(202)
    for v, w in rng.sample(bruhat_pairs(5), 40):
        ids = build_diagram(v, w).weight_ids()
        for make, tropical in ((phi, False), (trop_phi, True)):
            weights = _weights(ids, rng, tropical)
            fresh = make(v, w, weights)
            sup = fresh.support()
            assert fresh._raw is not None, "support() rendered the raw sweep"
            rendered = type(fresh)(fresh.n, dict(make(v, w, weights).coords))
            assert sup == rendered.support()


def test_canonical_coordinates_are_fractions():
    """A block whose unit is already one keeps no int: each canonical
    coordinate is a Fraction, or a Trop of one."""
    p = PlueckerVector(3, {(1,): 1, (2,): 3, (1, 2): 2, (1, 3): 4})
    assert [type(x) for x in p.canonicalize().coords.values()] == [Fraction] * 4
    t = TropPlueckerVector(3, {(1,): Trop(0), (2,): Trop(3), (1, 3): TROP_INF})
    assert [type(x.value) for x in t.canonicalize().coords.values()] == \
        [Fraction] * 2
