"""Differential test of the integer view (`_Vector._int_view`).

The view lists each size's supported indices in lexicographic order with
an int at each. Coordinates given as input are scaled to ints by the lcm
of their denominators in both modes; the raw sweep's classical values
are all positive, and the view hands them over as they are. The view it
replaces, frozen below, kept a classical vector's coordinates as they
were (explicit zeros included), listed the supports as sets and carried
a `negative` flag. On
the raw sweep and on vectors given their coordinates, in both modes, the
two must give the same supports, values equal tropically and,
classically, a positive multiple of the frozen values in each block; the
frozen flag must be what `decide_tnn` reads off the new values, whether
one is negative. The new blocks must be sorted and every value an int.
Inputs: the raw sweep and rendered copies (keys shuffled) of every S3 and
S4 cell and seeded S5 cells, blocks scaled by rationals (some negative)
or shifted, explicit zero entries, int coordinates, and `random_flag`.

The view returns `(blocks, L)`, the raw sweep's shape: per size an index
tuple and a list of ints. The view before that returned `(sup, values,
L)`, dicts by size and by index; it is frozen in `view_reference.py`,
and turned into blocks it must equal the view on every S3-S5 member, raw
and rendered, on members with each block k scaled by 1 + k or one block
negated, and on members read back from JSON and their near-misses. On
the raw sweep the view is the vector's ``_raw`` itself.
"""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

from tnnflag.algebra import Trop
from tnnflag.perms import bruhat_pairs
from tnnflag.plucker import (
    PlueckerVector, TropPlueckerVector, all_proper_indices, phi, trop_phi,
)
from tnnflag.wiring import build_diagram

from oracle_reference import random_flag
from sweep_reference import raw_sweep
from view_reference import ref_view, view_blocks


# ---------------------------------------------------------------------------
# The frozen reference: the view with set supports and Fraction values
# ---------------------------------------------------------------------------

def ref_raw_blocks(n, raw, absent):
    for k in range(1, n):
        found = []
        for I in itertools.combinations(range(1, n + 1), k):
            S = sum(1 << (i - 1) for i in I)
            if raw[S] != absent:
                found.append((I, raw[S]))
        yield found


def ref_int_view(p):
    signed = p.signed
    if p._raw is None:
        coords, sup = p._coords, {k: set() for k in range(1, p.n)}
        for I, val in coords.items():
            if (val.numerator if signed else val.value is not None):
                sup[len(I)].add(I)
        if signed:
            return sup, any(x.numerator < 0 for x in coords.values()), coords, 1
        finite = {I: coords[I].value for block in sup.values() for I in block}
        L = math.lcm(*(x.denominator for x in finite.values()))
        Q = {I: x.numerator * (L // x.denominator) for I, x in finite.items()}
        units = {k: Q[min(block)] for k, block in sup.items() if block}
        return sup, False, {I: q - units[len(I)] for I, q in Q.items()}, L
    raw, L = raw_sweep(p)
    sup, values = {}, {}
    for k, found in enumerate(ref_raw_blocks(p.n, raw, 0 if signed else None),
                              start=1):
        sup[k] = {I for I, _ in found}
        if found:
            unit = found[0][1]
            sign, shift = (-1 if unit < 0 else 1, 0) if signed else (1, unit)
            values.update((I, sign * r - shift) for I, r in found)
    negative = signed and min(values.values(), default=0) < 0
    return sup, negative, values, L


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _shuffled(p, rng):
    """A copy of p given its coordinates, in a shuffled key order."""
    items = list(p.coords.items())
    rng.shuffle(items)
    return type(p)(p.n, dict(items))


def _scaled(p, rng):
    """p with each block times its own rational (classically, some
    negative) or shifted by its own rational (tropically)."""
    out = {}
    for k in range(1, p.n):
        c = Fraction(rng.choice((1, -1, 2, -3, 7)), rng.choice((1, 3, 41)))
        for I, x in p.coords.items():
            if len(I) == k:
                out[I] = x * c if p.signed else Trop(x.value + c)
    return type(p)(p.n, out)


def _with_zeros(p, rng):
    """p with explicit zero (or inf) entries at some unsupported indices."""
    coords = dict(p.coords)
    for I in all_proper_indices(p.n):
        if I not in coords and rng.random() < 0.5:
            coords[I] = p.zero
    return _shuffled(type(p)(p.n, coords), rng)


def _ints(p):
    """p with each block scaled (classically) or shifted (tropically) to
    ints: Python ints, or Trops of ints."""
    out = {}
    for k in range(1, p.n):
        block = {I: x if p.signed else x.value for I, x in p.coords.items()
                 if len(I) == k}
        L = math.lcm(*(x.denominator for x in block.values()))
        for I, x in block.items():
            out[I] = int(x * L) if p.signed else Trop(int(x * L))
    return type(p)(p.n, out)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _check(p, seen):
    blocks, L = p._int_view()
    assert len(blocks) == max(p.n - 1, 0), p
    assert all(type(I) is tuple and len(I) == len(x) for I, x in blocks), p
    sup = {k: list(I) for k, (I, _) in enumerate(blocks, start=1)}
    values = {I: c for J, x in blocks for I, c in zip(J, x)}
    negative = p.signed and min(values.values(), default=0) < 0   # decide_tnn's
    ref_sup, ref_negative, ref_values, ref_L = ref_int_view(p)
    case = (p.mode, "raw" if p._raw is not None else "coords")
    assert {k: set(block) for k, block in sup.items()} == ref_sup, p
    assert all(block == sorted(set(block)) for block in sup.values()), p
    assert negative == ref_negative, p
    assert p.support() == ref_sup, p
    supported = [I for block in sup.values() for I in block]
    assert set(values) == set(supported), p
    assert all(type(x) is int for x in values.values()), p
    if p.signed:
        for block in sup.values():
            if block:
                u = block[0]
                assert values[u] * ref_values[u] > 0, p
                assert all(values[I] * ref_values[u] == ref_values[I] * values[u]
                           for I in block), p
    else:
        assert (values, L) == (ref_values, ref_L), p
    if p.signed and p._raw is not None:
        assert all(c > 0 for _, x in p._raw[0] for c in x), p
    seen[case] += 1
    seen[case + ("negative",)] += negative
    seen[case + ("L > 1",)] += L > 1
    seen[case + ("zeros",)] += any(x == p.zero for x in
                                   (p._coords.values() if p._raw is None else ()))


def test_view_matches_the_frozen_view():
    rng = random.Random(221)
    cells = bruhat_pairs(3) + bruhat_pairs(4) + rng.sample(bruhat_pairs(5), 30)
    seen = Counter()
    for v, w in cells:
        ids = build_diagram(v, w).weight_ids()
        a = {j: Fraction(rng.randint(1, 99), rng.randint(1, 9)) for j in ids}
        x = {j: Trop(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
             for j in ids}
        for make, weights in ((phi, a), (trop_phi, x)):
            _check(make(v, w, weights), seen)
            p = make(v, w, weights)
            for q in (_shuffled(p, rng), _scaled(p, rng), _with_zeros(p, rng),
                      _ints(p)):
                _check(q, seen)
    for n in (3, 4, 5):
        for _ in range(8):
            f = random_flag(n, seed=rng.randrange(10**6))
            _check(f, seen)
            _check(_with_zeros(f, rng), seen)
    _check(PlueckerVector(1, {}), seen)
    _check(TropPlueckerVector(1, {}), seen)
    for mode in ("classical", "tropical"):
        for branch in ("raw", "coords"):
            assert seen[mode, branch], (mode, branch, seen)
        assert seen[mode, "coords", "zeros"] and seen[mode, "coords", "L > 1"], seen
    assert seen["tropical", "raw", "L > 1"], seen
    assert seen["classical", "coords", "negative"], seen


# ---------------------------------------------------------------------------
# The view before it returned blocks
# ---------------------------------------------------------------------------

def _same_as_dict_view(p, seen, case):
    blocks, L = p._int_view()
    assert (blocks, L) == view_blocks(*ref_view(p)), (case, p)
    if p._raw is not None:
        assert p._int_view() is p._raw, (case, p)
        if p.signed:
            assert all(c > 0 for _, x in blocks for c in x), (case, p)
    seen[p.mode, case] += 1


def _near_misses(p, rng):
    """p with a seeded coordinate doubled (raised by 1 tropically),
    deleted, or negated classically."""
    coords = p.coords
    I = rng.choice(sorted(coords))
    bumped = coords[I] * 2 if p.signed else Trop(coords[I].value + 1)
    out = [{**coords, I: bumped}, {J: x for J, x in coords.items() if J != I}]
    if p.signed:
        out.append({**coords, I: -coords[I]})
    return [type(p)(p.n, c) for c in out]


def test_blocks_equal_the_frozen_dict_view():
    rng = random.Random(35)
    seen = Counter()
    members = []
    for n in (3, 4, 5):
        for v, w in bruhat_pairs(n):
            ids = build_diagram(v, w).weight_ids()
            a = {j: Fraction(rng.randint(1, 99), rng.randint(1, 9)) for j in ids}
            x = {j: Trop(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                 for j in ids}
            for p in (phi(v, w, a), trop_phi(v, w, x)):
                _same_as_dict_view(p, seen, "raw")
                p.coords                        # rendered: the raw form is dropped
                _same_as_dict_view(p, seen, "rendered")
                members.append(p)
    for p in rng.sample(members, 400):
        cls, coords = type(p), p.coords
        if p.signed:
            k = rng.randrange(1, p.n)
            scaled = [cls(p.n, {I: x * (1 + len(I)) for I, x in coords.items()}),
                      cls(p.n, {I: -x if len(I) == k else x
                                for I, x in coords.items()})]
        else:
            scaled = [cls(p.n, {I: Trop(t.value + len(I))
                                for I, t in coords.items()})]
        for q in scaled:
            _same_as_dict_view(q, seen, "rescaled")
        q = cls.from_json_dict(json.loads(json.dumps(p.to_json_dict())))
        for r in [q] + _near_misses(q, rng):
            _same_as_dict_view(r, seen, "json")
    for mode in ("classical", "tropical"):
        for case in ("raw", "rendered", "rescaled", "json"):
            assert seen[mode, case], (mode, case, seen)
