"""Frozen references for the inverse walk. ``ref_walk`` is the callback
walk that solved the cell weights before the walk was written out per
semiring, with the size units looked up at v^-1(1..k) up front and the
classical weights kept as reduced int pairs that became Fractions at the
end. Tests compare ``membership._solve``, ``psi``, ``trop_psi`` and
``psi_monomials`` with it, and ``test_reconstruct_compare.py``
reconstructs from its weights. It reads the values of the frozen integer
view (``view_reference.py``), a dict by index. ``ref_unit_solve`` is
``membership._solve`` as it was before each weight was solved against
the generator before it: on the same blocks, every value read against
its size's unit and divided by the weights on all of its collection's
other edges. ``ref_bisect_solve`` is ``membership._solve`` as it was
before the walk was compiled per cell: it walks the generators (the
frozen walk's, ``walk_reference.py``), finds
each independent value in its size's block by bisection and reads it
against the generator before it in its size, dividing by the paths
added since; each generator's added path is read here as the ids it
holds beyond the generator before it of its size."""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import sub, truediv

from tnnflag.algebra import Trop
from tnnflag.oracle import LaurentMonomial
from tnnflag.perms import inverse

from view_reference import ref_view
from walk_reference import generators


def ref_walk(v, w, value, div, solved, usable, problem):
    weights = {}
    for gen in generators(v, w):
        if not gen.in_svw:
            continue
        x = value(gen.index)
        if not usable(x):
            raise ValueError(f"coordinate at generating index {gen.index} {problem}")
        new = gen.new_weight_id
        if new is not None:
            for j in gen.weight_ids:
                if j != new:
                    x = div(x, weights[j])
            weights[new] = solved(x)
    return weights


def ref_reduced(x):
    g = gcd(*x)
    return abs(x[0]) // g, abs(x[1]) // g


def ref_solve(v, w, values, signed):
    """The weights at the view's ``values``: Fractions classically,
    ints (L times the weights) tropically."""
    absent, inv = 0 if signed else None, inverse(v)
    units = {k: values.get(tuple(sorted(inv[:k])), absent) for k in range(1, len(v))}
    if signed:
        pairs = ref_walk(v, w, lambda I: (values.get(I, 0), units[len(I)]),
                         lambda x, y: (x[0] * y[1], x[1] * y[0]), ref_reduced,
                         lambda x: x[0] * x[1] > 0, "is not positive")
        return {j: Fraction(*x) for j, x in pairs.items()}
    return ref_walk(v, w, lambda I: None if (x := values.get(I)) is None
                    else x - units[len(I)],
                    sub, lambda x: x, lambda x: x is not None, "is infinite")


def ref_psi(v, w, p):
    return ref_solve(v, w, ref_view(p)[1], True)


def ref_trop_psi(v, w, p):
    _, Q, L = ref_view(p)
    return {j: Trop(Fraction(x, L)) for j, x in ref_solve(v, w, Q, False).items()}


def ref_psi_monomials(v, w):
    return ref_walk(v, w, lambda I: LaurentMonomial(1, {I: 1}), truediv,
                    lambda m: m, lambda m: True, "")


def ref_unit_solve(v, w, blocks, signed):
    """The reduced pairs (classically) or ints (tropically) of the
    weights at the ``_int_view`` blocks ``blocks``."""
    weights = {}
    for I, ids, new, in_svw in generators(v, w):
        if not in_svw:
            continue
        J, xs = blocks[len(I) - 1]
        i = bisect_left(J, I)
        x = xs[i] if i < len(J) and J[i] == I else 0 if signed else None
        if not ids:                     # the size's unit index
            unit = x
        if signed:
            if x * unit <= 0:
                raise ValueError(f"coordinate at generating index {I} is not positive")
            if new is not None:
                q = unit
                for j in ids:
                    if j != new:
                        a, b = weights[j]
                        x, q = x * b, q * a
                g = gcd(x, q)
                weights[new] = (abs(x) // g, abs(q) // g)
        elif x is None:
            raise ValueError(f"coordinate at generating index {I} is infinite")
        elif new is not None:
            x -= unit
            for j in ids:
                if j != new:
                    x -= weights[j]
            weights[new] = x
    return weights


@lru_cache(maxsize=1)
def _with_added_paths(v, w):
    """Each generator's fields, then the ids its collection adds to the
    one before it of its size (none at the size's first index), as the
    multiset difference of their weight ids."""
    before, out = {}, []
    for g in generators(v, w):
        added = list(g.weight_ids)
        for j in before.get(len(g.index), ()):
            added.remove(j)
        before[len(g.index)] = g.weight_ids
        out.append((*g, tuple(added)))
    return tuple(out)


def ref_bisect_solve(v, w, blocks, signed):
    """The reduced pairs (classically) or ints (tropically) of the
    weights at the ``_int_view`` blocks ``blocks``."""
    weights = {}
    for I, ids, new, in_svw, added in _with_added_paths(v, w):
        if not in_svw:
            over += added               # solved weights, read past
            continue
        J, xs = blocks[len(I) - 1]
        i = bisect_left(J, I)
        x = xs[i] if i < len(J) and J[i] == I else 0 if signed else None
        if not ids:                     # the size's unit index
            base = x
        if signed:
            if x * base <= 0:
                raise ValueError(f"coordinate at generating index {I} is not positive")
            if new is not None:
                p, q = x, base
                for j in over + added:
                    if j != new:
                        a, b = weights[j]
                        p, q = p * b, q * a
                g = gcd(p, q)
                weights[new] = (abs(p) // g, abs(q) // g)
        elif x is None:
            raise ValueError(f"coordinate at generating index {I} is infinite")
        elif new is not None:
            y = x - base
            for j in over + added:
                if j != new:
                    y -= weights[j]
            weights[new] = y
        base, over = x, ()
    return weights
