"""
Pluecker-coordinate data model and computations: the cell parameterization
(minors of the cell matrix), its min-plus counterpart (path collections),
and the quadratic incidence relations, classical and tropical.

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
    "mr_matrix", "phi", "trop_phi",
    "generate_relations", "check_relation", "trop_check_relation",
    "trop_terms_verdict", "trop_eval_poly_terms",
]

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping

from .algebra import (
    TROP_INF, Trop, rat_from_str, rat_to_str, trop_from_str, trop_to_str,
    determinant,
)
from .perms import Perm, length
from .wiring import build_diagram

# a sorted tuple of distinct elements of {1..n}
Index = tuple[int, ...]


def index_to_str(I: Index) -> str:
    return ",".join(str(i) for i in I)


def index_from_str(s: str) -> Index:
    parts = tuple(int(x) for x in s.split(","))
    if tuple(sorted(set(parts))) != parts:
        raise ValueError(f"index must be sorted and duplicate-free: {s!r}")
    return parts


def all_proper_indices(n: int) -> Iterator[Index]:
    """All nonempty proper subsets of {1..n}, sizes 1..n-1, sorted tuples."""
    for k in range(1, n):
        yield from itertools.combinations(range(1, n + 1), k)


# ---------------------------------------------------------------------------
# Vectors
# ---------------------------------------------------------------------------

@dataclass
class _Vector:
    """Coordinates over a semiring; omitted indices are the semiring's zero.
    Subclasses fix the semiring (``zero``, ``one``) and the text form of a
    coordinate (``parse``, ``render``)."""
    n: int
    coords: dict[Index, object] = field(default_factory=dict)

    def coord(self, I):
        return self.coords.get(tuple(sorted(I)), self.zero)

    def support(self) -> dict[int, set[Index]]:
        out: dict[int, set[Index]] = {k: set() for k in range(1, self.n)}
        for I, val in self.coords.items():
            if val != self.zero:
                out[len(I)].add(I)
        return out

    def canonicalize(self):
        """Divide each size block by its lexicographically minimal supported
        coordinate (the Gale minimum, whenever the support is a matroid), so
        that coordinate becomes one: 1 classically, 0 tropically.
        """
        sup = self.support()
        coords: dict[Index, object] = {}
        for k in range(1, self.n):
            if not sup[k]:
                continue
            unit = self.coord(min(sup[k]))
            for I in sup[k]:
                coords[I] = self.coord(I) / unit
        return type(self)(self.n, coords)

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
        n = int(obj["n"])
        coords = {index_from_str(key): cls._parse_coord(key, val)
                  for key, val in obj.get("coords", {}).items()}
        for I in coords:
            if not (0 < len(I) < n and all(1 <= i <= n for i in I)):
                raise ValueError(f"bad index {I} for n={n}")
        return cls(n, {I: v for I, v in coords.items() if v != cls.zero})

    @classmethod
    def _parse_coord(cls, key: str, val: str):
        try:
            return cls.parse(val)
        except ZeroDivisionError:
            raise ValueError(
                f"coordinate {key}: zero denominator in {val!r}") from None


class PlueckerVector(_Vector):
    """Exact-rational coordinates; omitted indices are 0."""
    mode, zero, one = "classical", Fraction(0), Fraction(1)
    parse, render = staticmethod(rat_from_str), staticmethod(rat_to_str)


class TropPlueckerVector(_Vector):
    """Min-plus coordinates; omitted indices are infinity."""
    mode, zero, one = "tropical", TROP_INF, Trop(Fraction(0))
    parse, render = staticmethod(trop_from_str), staticmethod(trop_to_str)


# ---------------------------------------------------------------------------
# Cell matrix and parameterization
# ---------------------------------------------------------------------------

def _x_matrix(n: int, i: int, a: Fraction) -> list[list[Fraction]]:
    m = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    m[i - 1][i] = Fraction(a)
    return m


def _s_dot_matrix(n: int, i: int) -> list[list[Fraction]]:
    m = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    m[i - 1][i - 1] = m[i][i] = Fraction(0)
    m[i - 1][i] = Fraction(1)
    m[i][i - 1] = Fraction(-1)
    return m


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)]
            for r in range(n)]


def _check_weights(v: Perm, w: Perm, a: Mapping[int, Fraction],
                   require_positive: bool) -> None:
    d = build_diagram(v, w)
    expected = set(d.weight_ids())
    if set(a) != expected:
        raise ValueError(f"expected weight ids {sorted(expected)}, got {sorted(a)}")
    if len(expected) != length(w) - length(v):
        raise AssertionError("weight count != l(w) - l(v) (bug)")
    if require_positive and any(Fraction(x) <= 0 for x in a.values()):
        raise ValueError("weights must be strictly positive")


def mr_matrix(v: Perm, w: Perm, a: Mapping[int, Fraction]) -> list[list[Fraction]]:
    """Product of the upper-triangular weight factors x_i(a_j) and the
    signed crossing factors, following the distinguished subexpressions.
    """
    _check_weights(v, w, a, require_positive=True)
    d = build_diagram(v, w)
    n = d.n
    crossings = set(d.v_positions)
    m = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for j, i in enumerate(d.w_word.letters, start=1):
        factor = _s_dot_matrix(n, i) if j in crossings else _x_matrix(n, i, a[j])
        m = _mat_mul(m, factor)
    return m


def phi(v: Perm, w: Perm, a: Mapping[int, Fraction]) -> PlueckerVector:
    """Coordinates of the cell matrix: P_I = det of the topmost |I| rows in
    columns I, then canonical per-size normalization.
    """
    m = mr_matrix(v, w, a)
    n = len(m)
    coords: dict[Index, Fraction] = {}
    for I in all_proper_indices(n):
        minor = [[m[r][c - 1] for c in I] for r in range(len(I))]
        val = determinant(minor)
        if val != 0:
            coords[I] = val
    return PlueckerVector(n, coords).canonicalize()


def trop_phi(v: Perm, w: Perm, x: Mapping[int, Trop]) -> TropPlueckerVector:
    """Min over non-intersecting path collections {1'..|I|'} -> I of the sum
    of the edge weights; infinity when no collection exists.

    Computed by one left-to-right sweep over the vertical edges, in O(|E| 2^n):
    ``cost`` maps each set of strands occupied by the paths (a bit mask,
    bit r-1 for strand r) to the least weight of reaching it. Edge keys are
    distinct, so at most one path moves at each edge, and it may move exactly
    when its upper strand is free; a collection is thus the same thing as its
    sequence of moves, and the final sets are the sink sets I.
    """
    d = build_diagram(v, w)
    for val in x.values():
        if val.is_inf:
            raise ValueError("tropical weights must be finite")
    _check_weights(v, w, {j: Fraction(0) for j in x}, require_positive=False)
    cost: dict[int, Trop] = {}
    occupied = 0
    for label in range(1, d.n):
        occupied |= 1 << (d.strand_of_label(label) - 1)
        cost[occupied] = TropPlueckerVector.one
    for e in sorted(d.edges, key=lambda e: e.key):
        lower, upper = 1 << (e.lower - 1), 1 << (e.upper - 1)
        for S, c in list(cost.items()):
            if S & lower and not S & upper:
                T = S ^ lower ^ upper
                cost[T] = cost.get(T, TROP_INF) + c * x[e.weight_id]
    coords: dict[Index, Trop] = {}
    for I in all_proper_indices(d.n):
        S = sum(1 << (i - 1) for i in I)
        if S in cost:
            coords[I] = cost[S]
    return TropPlueckerVector(d.n, coords).canonicalize()


# ---------------------------------------------------------------------------
# Incidence relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncidenceRelation:
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
    """
    universe = range(1, n + 1)
    seen: set = set()
    out: list[IncidenceRelation] = []
    for r in range(1, n):
        for s in range(r, n):
            for I in itertools.combinations(universe, r - 1):
                for J in itertools.combinations(universe, s + 1):
                    terms = _relation_terms(I, J)
                    if three_term_only and len(terms) != 3:
                        continue
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


def trop_terms_verdict(terms: list[tuple[int, Trop]]) -> tuple[bool, bool]:
    """(solution, positive solution) for a list of (coefficient sign, value)
    tropical terms: the minimum over finite terms must be attained at least
    twice, and for positivity by both a positive- and a negative-signed term.
    All-infinite term lists count as (vacuously) satisfied.
    """
    finite = [(c, t) for c, t in terms if not t.is_inf]
    if not finite:
        return True, True
    mn = min(t for _, t in finite)
    attained = [c for c, t in finite if t == mn]
    solution = len(attained) >= 2
    positive = solution and any(c > 0 for c in attained) and any(c < 0 for c in attained)
    return solution, positive


def trop_check_relation(rel: IncidenceRelation, p: TropPlueckerVector,
                        positive: bool) -> bool:
    terms = [(sign, p.coord(left) * p.coord(right))
             for sign, left, right in rel.terms]
    solution, pos = trop_terms_verdict(terms)
    return pos if positive else solution


def trop_eval_poly_terms(poly: list[tuple[int, dict[Index, int]]],
                         p: TropPlueckerVector) -> list[tuple[int, Trop]]:
    """Evaluate a polynomial given as (coefficient, monomial exponent map)
    terms into (sign, tropical value) pairs; exponents are nonnegative.
    """
    out = []
    for coeff, mono in poly:
        val = p.one
        for I, e in mono.items():
            val = val * p.coord(I) ** e
        out.append((coeff, val))
    return out


if __name__ == "__main__":
    import doctest
    doctest.testmod()
