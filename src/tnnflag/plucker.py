"""
Pluecker-coordinate data model and computations: the cell parameterization
as signed sums over non-intersecting path collections in the wiring
diagram (Lindstroem-Gessel-Viennot), its min-plus counterpart (least
collection weights), both from one sweep over the diagram, and the
quadratic incidence relations, classical and tropical.

Coordinates are indexed by sorted tuples over {1..n}, all proper nonempty
sizes 1..n-1; each size block is projective (common scalar classically,
common additive shift tropically).

>>> from tnnflag.perms import perm_from_str
>>> from fractions import Fraction
>>> v, w = perm_from_str("1324"), perm_from_str("4213")
>>> p = phi(v, w, {1: Fraction(2), 2: Fraction(3), 4: Fraction(5)})
>>> p.coord((2, 3, 4))
Fraction(15, 1)
"""

__all__ = [
    "Index", "PlueckerVector", "TropPlueckerVector", "IncidenceRelation",
    "index_to_str", "index_from_str", "all_proper_indices",
    "phi", "trop_phi",
    "generate_relations", "check_relation", "trop_check_relation",
    "trop_terms_verdict",
]

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .algebra import (
    TROP_INF, Trop, rat_from_str, rat_to_str, trop_from_str, trop_to_str,
)
from .perms import Perm
from .wiring import build_diagram

# a sorted tuple of distinct elements of {1..n}
Index = tuple[int, ...]


def index_to_str(I: Index) -> str:
    return ",".join(str(i) for i in I)


def index_from_str(s: str) -> Index:
    if not s:
        raise ValueError("the index key is empty")
    parts = tuple(int(x) for x in s.split(","))
    if tuple(sorted(set(parts))) != parts:
        raise ValueError(f"index must be sorted and duplicate-free: {s!r}")
    return parts


def _check_index(I: Index, n: int) -> None:
    """Raise ValueError unless I is an index of size 1..n-1 over {1..n}."""
    if not (0 < len(I) < n and I == tuple(sorted(set(I)))
            and 1 <= I[0] and I[-1] <= n):
        raise ValueError(f"bad index {I} for n={n}")


def all_proper_indices(n: int) -> Iterator[Index]:
    """All nonempty proper subsets of {1..n}, sizes 1..n-1, sorted tuples."""
    for k in range(1, n):
        yield from itertools.combinations(range(1, n + 1), k)


def _scale_to_ints(values: Mapping) -> tuple[dict, int]:
    """``({k: L * values[k]}, L)``: the ints and Fractions of ``values``
    times the lcm L of their denominators (1 when there are none)."""
    L = math.lcm(*(x.denominator for x in values.values()))
    return {k: x.numerator * (L // x.denominator) for k, x in values.items()}, L


# ---------------------------------------------------------------------------
# Vectors
# ---------------------------------------------------------------------------

class _Vector:
    """Coordinates over a semiring; omitted indices are the semiring's zero.
    Subclasses fix the semiring (``zero``, ``one``) and the text form of a
    coordinate (``parse``, ``render``).

    A vector that ``phi`` or ``trop_phi`` returns holds the raw sweep
    ``(raw, L)`` instead of coordinates. They render (``_render``) when
    ``coords`` is first read, which drops the raw form, so an edit made
    through ``coords`` is what every later reader sees. Until then the
    deciders read the raw sweep's integers (``_int_view``)."""

    def __init__(self, n: int, coords: dict[Index, object] | None = None):
        self.n = n
        self.coords = {} if coords is None else coords

    @classmethod
    def _of_raw(cls, n: int, raw: list, L: int):
        """The vector that the raw pass ``(raw, L)`` of ``_sweep`` gives,
        its coordinates not yet rendered."""
        p = cls(n)
        p._raw = (raw, L)
        return p

    @property
    def coords(self) -> dict[Index, object]:
        if self._raw is not None:
            self._coords, self._raw = _render(self.n, *self._raw, self.signed), None
        return self._coords

    @coords.setter
    def coords(self, coords: dict[Index, object]) -> None:
        self._coords, self._raw = coords, None

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(n={self.n!r}, coords={self.coords!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.coords) == (other.n, other.coords)

    def coord(self, I):
        return self.coords.get(tuple(sorted(I)), self.zero)

    def support(self) -> dict[int, set[Index]]:
        return self._support()[0]

    def canonicalize(self):
        """Divide each size block by its lexicographically minimal supported
        coordinate (the Gale minimum, whenever the support is a matroid), so
        that coordinate becomes one: 1 classically, 0 tropically. A block
        whose unit is already one is copied as it is; the others are
        multiplied by one / unit, which is exact for int coordinates too.
        """
        src, one = self.coords, self.one
        coords: dict[Index, object] = {}
        for block in self.support().values():
            if not block:
                continue
            unit = src[min(block)]
            if unit == one:
                for I in block:
                    coords[I] = src[I]
            else:
                inv = one / unit
                for I in block:
                    coords[I] = src[I] * inv
        return type(self)(self.n, coords)

    def _support(self) -> tuple[dict[int, set[Index]], bool]:
        """The supported keys per size 1..n-1, and whether a coordinate is
        negative, in one pass that reads each classical coordinate's
        numerator (an int or Fraction) or each tropical one's value. Keys
        are not checked (``check_indices`` does that), but a key of size 0
        or n or more raises its ValueError."""
        sup: dict[int, set[Index]] = {k: set() for k in range(1, self.n)}
        negative = False
        try:
            if self.signed:
                for I, val in self.coords.items():
                    sign = val.numerator
                    if sign:
                        sup[len(I)].add(I)
                        negative |= sign < 0
            else:
                for I, val in self.coords.items():
                    if val.value is not None:
                        sup[len(I)].add(I)
        except KeyError:        # a key of size 0 or >= n
            self.check_indices()
            raise
        return sup, negative

    def _int_view(self) -> tuple[dict[int, set[Index]], bool,
                                 Mapping[Index, int | Fraction], int]:
        """What the deciders read: ``(sup, negative, values, L)``, the
        supported indices per size 1..n-1, whether a coordinate is
        negative, and a value per supported index. On the raw sweep a
        classical value is raw_I times the sign of its block's raw unit,
        the coordinate times a positive factor per block, and a tropical
        one is Q_I = raw_I - raw_unit with the sweep's L. Otherwise they
        come from ``_support``: the coordinates themselves with L = 1
        classically, and ``_scaled``'s (Q, L) tropically."""
        if self._raw is None:
            sup, negative = self._support()
            return (sup, negative, self.coords, 1) if self.signed \
                else (sup, negative, *self._scaled(sup))
        (raw, L), signed = self._raw, self.signed
        sup, values = {}, {}
        for k, found in enumerate(_raw_blocks(self.n, raw, 0 if signed else None),
                                  start=1):
            sup[k] = {I for I, _ in found}
            if found:
                unit = found[0][1]
                sign, shift = (-1 if unit < 0 else 1, 0) if signed else (1, unit)
                values.update(found if (sign, shift) == (1, 0) else
                              ((I, sign * r - shift) for I, r in found))
        negative = signed and min(values.values(), default=0) < 0
        return sup, negative, values, L

    def check_indices(self) -> None:
        """Raise ValueError naming the first key that is not an index: a
        sorted tuple of distinct entries of {1..n}, of size 1..n-1."""
        for I in self.coords:
            _check_index(I, self.n)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "coords": {index_to_str(I): self.render(val)
                       for I, val in sorted(self.coords.items())
                       if val != self.zero},
        }

    @classmethod
    def from_json_dict(cls, obj: dict):
        if obj.get("mode", "classical") != cls.mode:
            raise ValueError(f"expected a {cls.mode} vector")
        n = obj["n"]
        if type(n) is not int:
            raise ValueError(f"n must be a JSON integer, got {n!r}")
        items = obj.get("coords", {})
        if not isinstance(items, dict):
            raise ValueError("coords must be a JSON object")
        coords, keys = {}, {}
        for key, val in items.items():
            I = index_from_str(key)
            if I in keys:
                raise ValueError(f"keys {keys[I]!r} and {key!r} name the "
                                 "same index")
            keys[I], coords[I] = key, cls._parse_coord(key, val)
        for I in coords:
            _check_index(I, n)
        return cls(n, {I: v for I, v in coords.items() if v != cls.zero})

    @classmethod
    def _parse_coord(cls, key: str, val: str):
        if not isinstance(val, str):
            raise ValueError(f"coordinate {key}: expected a string, "
                             f"got {val!r}")
        try:
            return cls.parse(val)
        except ZeroDivisionError:
            raise ValueError(
                f"coordinate {key}: zero denominator in {val!r}") from None
        except ValueError as exc:
            raise ValueError(f"coordinate {key}: {exc}") from None


class PlueckerVector(_Vector):
    """Exact-rational coordinates; omitted indices are 0."""
    mode, zero, one, signed = "classical", Fraction(0), Fraction(1), True
    parse, render = staticmethod(rat_from_str), staticmethod(rat_to_str)


class TropPlueckerVector(_Vector):
    """Min-plus coordinates; omitted indices are infinity."""
    mode, zero, one, signed = "tropical", TROP_INF, Trop(Fraction(0)), False
    parse, render = staticmethod(trop_from_str), staticmethod(trop_to_str)

    def _scaled(self, sup: Mapping[int, set[Index]]) -> tuple[dict[Index, int], int]:
        """``(Q, L)`` for the support ``sup`` of ``_support``: L is the
        lcm of the finite coordinates' denominators (1 when there are
        none), and Q_I = L (p_I - p_unit) is an int, the unit being the
        lexicographically least supported index of I's size: the
        canonical vector times L. Coordinates are Trops of ints or
        Fractions."""
        Q, L = _scale_to_ints({I: self.coords[I].value
                               for block in sup.values() for I in block})
        for block in sup.values():
            if block:
                shift = Q[min(block)]
                for I in block:
                    Q[I] -= shift
        return Q, L


# ---------------------------------------------------------------------------
# Cell parameterization
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _index_masks(n: int) -> tuple[tuple[tuple[Index, int], ...], ...]:
    """Per size 1..n-1, its indices in lexicographic order, each with its
    strand mask (bit i-1 for i)."""
    return tuple(tuple((I, sum(1 << (i - 1) for i in I))
                       for I in itertools.combinations(range(1, n + 1), k))
                 for k in range(1, n))


def _sweep(v: Perm, w: Perm, x: Mapping[int, int | Fraction], signed: bool,
           ) -> tuple[list, int]:
    """The raw pass: ``(raw, L)``, where ``raw[S]``, for the set S of
    strands given as a bit mask (bit r-1 for strand r), sums the weights
    of the non-intersecting path collections {1'..|S|'} -> S, over the
    signed sum-product semiring when ``signed`` and min-plus otherwise,
    as a Python int (absent: 0 classically, None tropically). ``x`` holds
    the rational weights (values of the tropical ones). Classically raw_I
    is P_I times a positive factor common to all I; tropically it is
    L * P_I, L the lcm of the weights' denominators (1 for int weights),
    so a block's coordinates are raw_I / raw_unit or (raw_I - raw_unit) / L.

    One left-to-right pass over the diagram's ``sweep_events`` serves every
    size: ``raw[S]`` is the sum so far for the set S the paths occupy. Edge
    keys are distinct, so at most one path moves at each edge, and it may
    move exactly when its upper strand is free; a collection is thus the
    same thing as its sequence of moves, and the final sets are the sink
    sets I. Which sets are reachable, and so which move at an edge or cross
    a segment, depends only on the diagram: each event lists them, and the
    pass visits no other. The ``signed`` pass gets the
    Lindstroem-Gessel-Viennot sign: a move is negated per path it jumps
    over (reattached edges can span several strands), and a state per -1
    segment it crosses. The remaining sign, that of 1'..k' read bottom to
    top, is common to size k and cancels in the normalization.

    Classically an edge of weight p/q multiplies every state by its own q
    (unless q = 1) and adds p times each moving state to its destination,
    so every collection's product is scaled by the same product of the
    edges' denominators (not by L^|E| for their lcm L), which cancels in
    P_I / P_unit. A source holds the lower strand and a destination does
    not, so no state is both at one edge: its moves read only states it
    leaves as they were, and an integer weight updates the states in
    place. Tropically the weights are the integers L x_e.
    """
    d = build_diagram(v, w)
    if set(x) != set(d.weight_ids()):
        raise ValueError(f"expected weight ids {list(d.weight_ids())}, "
                         f"got {sorted(x)}")
    value = [0 if signed else None] * (1 << d.n)
    S = 0
    for label in range(1, d.n):
        S |= 1 << (d.strand_of_label(label) - 1)
        value[S] = 1 if signed else 0
    L = 1
    if signed:
        for wid, move, jumped, sources in d.sweep_events:
            if wid is None:
                for S in sources:
                    value[S] = -value[S]
                continue
            p, q = x[wid].numerator, x[wid].denominator
            old = value
            if q != 1:
                value = [c * q for c in old]
            for S in sources:
                c = p * old[S]
                value[S ^ move] += -c if (S & jumped).bit_count() & 1 else c
    else:
        a, L = _scale_to_ints(x)
        for wid, move, _, sources in d.sweep_events:
            if wid is not None:
                c_e = a[wid]
                for S in sources:
                    t, T = value[S] + c_e, S ^ move
                    if value[T] is None or t < value[T]:
                        value[T] = t
    return value, L


def _raw_blocks(n: int, raw: list, absent) -> Iterator[list[tuple[Index, int]]]:
    """Per size 1..n-1, the supported indices of a raw pass with their
    raw values, in lexicographic order (so the unit comes first)."""
    for block in _index_masks(n):
        yield [(I, raw[S]) for I, S in block if raw[S] != absent]


def _render(n: int, raw: list, L: int, signed: bool) -> dict[Index, object]:
    """The coordinates that the raw pass ``(raw, L)`` gives, with canonical
    per-size normalization, rendered when a vector's ``coords`` is first
    read: Fractions and Trops are built only here."""
    coords = {}
    for found in _raw_blocks(n, raw, 0 if signed else None):
        if not found:
            continue
        unit, raw_of = found[0][1], dict(found)
        # the set of supported indices, filled and iterated as
        # ``canonicalize`` does, so the coordinates come in its order
        for I in {I for I, _ in found}:
            r = raw_of[I]
            coords[I] = (Fraction(r, unit) if signed
                         else Trop(Fraction(r - unit, L)))
    return coords


def _exact_weights(x: Mapping[int, object], tropical: bool,
                   ) -> dict[int, int | Fraction]:
    """The rational value of each weight, which must be an int or a
    Fraction, held in a finite Trop when ``tropical``."""
    out = {}
    for j, val in x.items():
        q = val
        if tropical:
            if isinstance(val, Trop) and val.is_inf:
                raise ValueError("tropical weights must be finite")
            q = val.value if isinstance(val, Trop) else None
        if type(q) is not int and not isinstance(q, Fraction):
            kind = "a Trop of an int or Fraction" if tropical \
                else "an int or Fraction"
            raise ValueError(f"weight {j}: expected {kind}, got {val!r}")
        out[j] = q
    return out


def phi(v: Perm, w: Perm, a: Mapping[int, int | Fraction]) -> PlueckerVector:
    """The cell's coordinates at positive weights: P_I is the signed sum
    over non-intersecting path collections {1'..|I|'} -> I of the product
    of their edge weights, which by Lindstroem-Gessel-Viennot is the
    top-rows minor of the cell matrix up to one sign per size; then
    canonical per-size normalization. Weights are ints or Fractions.
    The vector holds the raw sweep: its coordinates render on first read,
    and the deciders read the sweep's integers without rendering them.
    """
    exact = _exact_weights(a, tropical=False)
    if any(val <= 0 for val in exact.values()):
        raise ValueError("weights must be strictly positive")
    return PlueckerVector._of_raw(len(v), *_sweep(v, w, exact, True))


def trop_phi(v: Perm, w: Perm, x: Mapping[int, Trop]) -> TropPlueckerVector:
    """Min over non-intersecting path collections {1'..|I|'} -> I of the sum
    of the edge weights; infinity when no collection exists. The same sweep
    as ``phi``, unsigned, in the min-plus semiring. Weights are finite
    Trops of ints or Fractions. As with ``phi``, the coordinates render on
    first read, and the deciders read the raw sweep.
    """
    return TropPlueckerVector._of_raw(
        len(v), *_sweep(v, w, _exact_weights(x, tropical=True), False))


# ---------------------------------------------------------------------------
# Incidence relations
# ---------------------------------------------------------------------------

class IncidenceRelation(NamedTuple):
    r: int
    s: int
    I: Index
    J: Index
    terms: tuple[tuple[int, Index, Index], ...]  # (sign, left, right)


def _relation_terms(I: Index, J: Index) -> list[tuple[int, Index, Index]]:
    terms = []
    for j in J:
        if j in I:
            continue
        sign = (-1) ** (sum(1 for k in J if k < j) + sum(1 for i in I if j < i))
        left = tuple(sorted(I + (j,)))
        right = tuple(k for k in J if k != j)
        terms.append((sign, left, right))
    return terms


@lru_cache(maxsize=None)
def generate_relations(n: int, three_term_only: bool = False,
                       ) -> tuple[IncidenceRelation, ...]:
    """All incidence relations for sizes 1 <= r <= s <= n-1, deduplicated;
    with the three-term filter, only those with exactly 3 surviving summands.
    A pair (I, J) has one summand per element of J - I, and |J - I| >= s-r+2,
    so the filter needs s <= r+1 and skips the other pairs before their
    terms are built.

    Every term of a relation pairs a size-r with a size-s coordinate, so
    shifting each size block by a constant, or scaling all coordinates by
    a positive factor, keeps a relation's tropical verdict: the deciders
    scan them on integers (``_first_violated``). Tropically, the full set
    cuts out the nonnegative flag Dressian; on vectors with every
    coordinate finite the three-term set alone does (see ``decide_trop``).
    """
    universe = range(1, n + 1)
    seen: set = set()
    out: list[IncidenceRelation] = []
    for r in range(1, n):
        for s in range(r, min(r + 2, n) if three_term_only else n):
            for I in itertools.combinations(universe, r - 1):
                for J in itertools.combinations(universe, s + 1):
                    if three_term_only and len(set(J) - set(I)) != 3:
                        continue
                    terms = _relation_terms(I, J)
                    # merge like monomials (unordered product for r == s)
                    merged: dict = {}
                    for sign, left, right in terms:
                        key = (min(left, right), max(left, right)) if r == s \
                            else (left, right)
                        merged[key] = merged.get(key, 0) + sign
                    clean = [(c, l_, r_) for (l_, r_), c in merged.items() if c != 0]
                    if not clean:
                        continue
                    clean.sort(key=lambda t: (t[1], t[2]))
                    flip = -1 if clean[0][0] < 0 else 1
                    sig = tuple((flip * c, l_, r_) for c, l_, r_ in clean)
                    if sig in seen:
                        continue
                    seen.add(sig)
                    out.append(IncidenceRelation(
                        r, s, I, J, tuple((c, l_, r_) for c, l_, r_ in clean)))
    return tuple(out)


def check_relation(rel: IncidenceRelation, p: PlueckerVector) -> Fraction:
    """Exact value of the relation at p; 0 iff satisfied."""
    return sum((Fraction(sign) * p.coord(left) * p.coord(right)
                for sign, left, right in rel.terms), Fraction(0))


def _terms_verdict(terms: Iterable[tuple[int, int | Fraction | None]],
                   ) -> tuple[bool, bool]:
    """(solution, positive solution) for a list of (coefficient sign,
    value) tropical terms, a value being an int or a Fraction and None
    for infinity: the minimum over finite terms must be attained at least
    twice, and for positivity by both a positive- and a negative-signed
    term. All-infinite term lists count as (vacuously) satisfied. Adding
    a constant to every term, or scaling all by a positive factor, keeps
    the verdict.
    """
    finite = [(t, c) for c, t in terms if t is not None]
    if not finite:
        return True, True
    mn = min(finite)[0]
    attained = [c for t, c in finite if t == mn]
    solution = len(attained) >= 2
    return solution, solution and max(attained) > 0 > min(attained)


def _term_values(rel: IncidenceRelation, value: Callable[[Index], object],
                 ) -> list[tuple[int, object]]:
    """(sign, value of the product) per term of ``rel``: the sum of its two
    coordinates' ``value``s, or None when either is infinite (None)."""
    out = []
    for sign, left, right in rel.terms:
        a = value(left)
        b = None if a is None else value(right)
        out.append((sign, None if b is None else a + b))
    return out


def _first_violated(rels: Iterable[IncidenceRelation],
                    value: Callable[[Index], object],
                    ) -> IncidenceRelation | None:
    """The first of ``rels`` that the tropical point whose coordinate at I
    is ``value(I)`` (an int or a Fraction, None for infinity) does not
    positively solve; None if it solves them all. The values may be any
    positive multiple of the coordinates, each size block shifted by its
    own constant: all terms of a relation share one size pair, so that
    shifts every term alike."""
    for rel in rels:
        if not _terms_verdict(_term_values(rel, value))[1]:
            return rel
    return None


def trop_terms_verdict(terms: list[tuple[int, Trop]]) -> tuple[bool, bool]:
    """(solution, positive solution) for a list of (coefficient sign, Trop)
    terms; see ``_terms_verdict``."""
    return _terms_verdict([(c, t.value) for c, t in terms])


def trop_check_relation(rel: IncidenceRelation, p: TropPlueckerVector,
                        positive: bool) -> bool:
    solution, pos = _terms_verdict(_term_values(rel, lambda I: p.coord(I).value))
    return pos if positive else solution


if __name__ == "__main__":
    import doctest
    doctest.testmod()
