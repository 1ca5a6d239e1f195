"""
Pluecker-coordinate data model and computations: the cell parameterization
as sums over non-intersecting path collections in the wiring diagram
(Lindstroem-Gessel-Viennot, with one sign per size), its min-plus
counterpart (least collection weights), both from one sweep over the
diagram, the quadratic incidence relations, and the scan for the first
one that a tropical point does not positively solve
(``_first_violated``), which ``decide_trop`` runs. Evaluating one
relation at a vector (``check_relation``, ``trop_check_relation``) is
the tests' (``tests/oracle_reference.py``).

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
    "generate_relations",
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
from .wiring import _run_sweep, build_diagram

# a sorted tuple of distinct elements of {1..n}
Index = tuple[int, ...]


def index_to_str(I: Index) -> str:
    return ",".join(str(i) for i in I)


def index_from_str(s: str) -> Index:
    if not s:
        raise ValueError("the index key is empty")
    try:
        parts = tuple(int(x) for x in s.split(","))
    except ValueError:
        raise ValueError(f"index key {s!r} does not parse as comma-separated "
                         "integers") from None
    if tuple(sorted(set(parts))) != parts:
        raise ValueError(f"index must be sorted and duplicate-free: {s!r}")
    return parts


def _parse_keyed(items: Mapping[str, object], noun: str, what: str,
                 parse_key: Callable[[str], object],
                 parse_value: Callable[[object], object]) -> dict:
    """``{parse_key(key): parse_value(val)}`` over a JSON object's items.
    A key that does not parse raises ``parse_key``'s own ValueError; two
    keys that parse to the same ``what``, and a value that does not parse,
    raise one naming the keys, or prefixed "<noun> <key>: "."""
    out, keys = {}, {}
    for key, val in items.items():
        k = parse_key(key)
        if k in keys:
            raise ValueError(f"keys {keys[k]!r} and {key!r} name the same {what}")
        try:
            keys[k], out[k] = key, parse_value(val)
        except ZeroDivisionError:
            raise ValueError(f"{noun} {key}: zero denominator in {val!r}") from None
        except ValueError as exc:
            raise ValueError(f"{noun} {key}: {exc}") from None
    return out


def _is_index(I: Index, n: int) -> bool:
    """Whether I is an index of size 1..n-1 over {1..n}: a sorted tuple
    of distinct ints."""
    return (type(I) is tuple and all(type(i) is int for i in I)
            and 0 < len(I) < n and I == tuple(sorted(set(I)))
            and 1 <= I[0] and I[-1] <= n)


def _check_index(I: Index, n: int) -> None:
    if not _is_index(I, n):
        raise ValueError(f"bad index {I!r} for n={n}")


def all_proper_indices(n: int) -> Iterator[Index]:
    """All nonempty proper subsets of {1..n}, sizes 1..n-1, sorted tuples."""
    for k in range(1, n):
        yield from itertools.combinations(range(1, n + 1), k)


# ---------------------------------------------------------------------------
# Vectors
# ---------------------------------------------------------------------------

class _Vector:
    """Coordinates over a semiring; omitted indices are the semiring's zero.
    Subclasses fix the semiring (``zero``, ``one``) and the text form of a
    coordinate (``parse``, ``render``).

    One integer view, ``_int_view``, reads a vector's values, in the raw
    sweep's shape: per size, a block of its supported indices in
    lexicographic order and a list of an int at each, a positive multiple
    of the canonical coordinates up to the sign of the block's unit (on
    the raw sweep, every classical value is positive).
    ``support``, the deciders, ``psi``, ``trop_psi``, ``canonicalize`` and
    the first read of ``coords`` all take it. A vector that ``phi`` or
    ``trop_phi`` returns holds the raw sweep ``(blocks, L)`` of ``_sweep``
    instead of coordinates, and the view hands over its blocks. When
    ``coords`` is first read it is normalized from the view
    (``canonicalize``) and the raw form is dropped, so an edit made
    through ``coords`` is what every later reader sees.
    Every vector the library builds lists its coordinates by size, each
    size block in lexicographic order; one given its coordinates keeps
    their order."""

    def __init__(self, n: int, coords: dict[Index, object] | None = None):
        self.n = n
        self.coords = {} if coords is None else coords

    @classmethod
    def _of_raw(cls, n: int, blocks: list, L: int):
        """The vector whose raw sweep is ``blocks`` (``_sweep``), with the
        lcm L of its weights' denominators, its coordinates not yet
        rendered."""
        p = cls(n)
        p._raw = (blocks, L)
        return p

    @property
    def coords(self) -> dict[Index, object]:
        if self._raw is not None:
            self._coords, self._raw = self.canonicalize()._coords, None
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
        """The coordinate at I in any order (keys are sorted; none is None)."""
        coords = self.coords
        if type(I) is tuple and (x := coords.get(I)) is not None:
            return x
        return coords.get(tuple(sorted(I)), self.zero)

    def support(self) -> dict[int, set[Index]]:
        return {k: set(I)
                for k, (I, _) in enumerate(self._int_view()[0], start=1)}

    def canonicalize(self):
        """Divide each size block by its lexicographically minimal supported
        coordinate (the Gale minimum, whenever the support is a matroid), so
        that coordinate becomes one: 1 classically, 0 tropically. Each
        coordinate is a Fraction, or a Trop of one, listed by size and then
        lexicographically, block by block from ``_int_view``: the int
        x_I of a block whose unit is x_unit gives Fraction(x_I, x_unit)
        classically and Trop(Fraction(x_I - x_unit, L)) tropically. A
        vector that holds the raw sweep is normalized from its integer
        view and keeps its raw form."""
        blocks, L = self._int_view()
        signed = self.signed
        return type(self)(self.n, {
            I: Fraction(c, x[0]) if signed else Trop(Fraction(c - x[0], L))
            for J, x in blocks for I, c in zip(J, x)})

    def _int_view(self) -> tuple[list[tuple[tuple[Index, ...], list[int]]], int]:
        """The one read of a vector's values: ``(blocks, L)``, per size
        1..n-1 the supported indices as a tuple in lexicographic order
        and a list of an int at each, the shape of the raw sweep
        (``wiring._run_sweep``). A vector that holds the raw sweep hands
        over its ``(blocks, L)`` as they are, not copied, so no reader may
        change a block: classically each value is positive, the
        coordinate times a positive factor per block, and tropically it
        is Q_I = L (p_I - p_unit), since the unit's raw value is 0.
        Coordinates are scaled to ints x_I by the lcm L of their
        denominators (1 when there are none); then, per block, a
        classical value is x_I (so a negative value is a negative
        coordinate of the input), and a tropical one is Q_I = x_I - x_unit.
        The keys of the support are not checked (``check_indices`` does
        that), but a key of size 0 or n or more, one that does not sort
        with the others, or one with an entry that is not an int (1.0 and
        True equal ints without being them) raises its ValueError, and so
        does any key at the semiring's zero that is not an index: no later
        check sees those keys, since the view leaves them out. A vector
        that holds the raw sweep has no keys to check."""
        if self._raw is not None:
            return self._raw
        signed = self.signed
        sup = {k: [] for k in range(1, self.n)}
        try:
            # every key is of ints, and every key at the zero is an index
            keyed = {*map(type, itertools.chain.from_iterable(self._coords))} <= {int}
            for I, val in self._coords.items():
                if (val.numerator if signed else val.value is not None):
                    sup[len(I)].append((I, val if signed else val.value))
                elif keyed:
                    keyed = _is_index(I, self.n)
            sup = [sorted(b) for b in sup.values()]
        except (KeyError, TypeError):       # a key of size 0 or >= n, or not of ints
            self.check_indices()
            raise
        if not keyed:
            self.check_indices()
        L = math.lcm(*(x.denominator for b in sup for _, x in b))
        blocks = [(tuple([I for I, _ in b]),
                   [x.numerator * (L // x.denominator) for _, x in b])
                  for b in sup]
        if not signed:
            blocks = [(I, [c - x[0] for c in x] if x and x[0] else x)
                      for I, x in blocks]
        return blocks, L

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
        n = obj.get("n")
        if type(n) is not int:
            raise ValueError(f"n must be a JSON integer, got {n!r}")
        items = obj.get("coords", {})
        if not isinstance(items, dict):
            raise ValueError("coords must be a JSON object")
        coords = _parse_keyed(items, "coordinate", "index", index_from_str,
                             cls._parse_coord)
        for I in coords:
            _check_index(I, n)
        order = sorted(coords, key=lambda I: (len(I), I))
        return cls(n, {I: coords[I] for I in order if coords[I] != cls.zero})

    @classmethod
    def _parse_coord(cls, val: str):
        if not isinstance(val, str):
            raise ValueError(f"expected a string, got {val!r}")
        return cls.parse(val)


class PlueckerVector(_Vector):
    """Exact-rational coordinates; omitted indices are 0."""
    mode, zero, one, signed = "classical", Fraction(0), Fraction(1), True
    parse, render = staticmethod(rat_from_str), staticmethod(rat_to_str)


class TropPlueckerVector(_Vector):
    """Min-plus coordinates; omitted indices are infinity."""
    mode, zero, one, signed = "tropical", TROP_INF, Trop(Fraction(0)), False
    parse, render = staticmethod(trop_from_str), staticmethod(trop_to_str)


# ---------------------------------------------------------------------------
# Cell parameterization
# ---------------------------------------------------------------------------

def _sweep(v: Perm, w: Perm, x: Mapping[int, object], signed: bool) -> list:
    """The raw pass: per size 1..n-1, the sets I of strands (as sorted
    tuples) that the non-intersecting path collections {1'..|I|'} reach,
    in lexicographic order, each with raw_I, the sum of those
    collections' weights over the sum-product semiring when ``signed``
    and min-plus otherwise, as a Python int. ``x`` holds the
    weights: classically each as the pair (p, q) of ints of its value
    p/q in lowest terms (``_exact_weights``), and tropically the ints
    L x_e, L the lcm of the weights' denominators. Classically raw_I is
    positive, P_I times a positive factor common to all I; tropically it
    is L * P_I, so a block's coordinates are raw_I / raw_unit or
    (raw_I - raw_unit) / L. Weight ids other than the diagram's raise
    ValueError: with as many weights as edges, a missing id is a
    KeyError of the pass's own lookups, so no id set is built.

    One left-to-right pass over the diagram's edges in key order serves
    every size: the pass keeps a sum for each set S the paths occupy so
    far. Edge keys are distinct, so at most one path moves at each edge,
    and it may move exactly when its upper strand is free; a collection
    is thus the same thing as its sequence of moves, and the final sets
    are the sink sets I. Which sets are reachable, and so which move at
    an edge, depends only on the diagram: the cached ``build_diagram`` compiles them into a program on
    the sets numbered as first reached (``wiring.SweepProgram``), and
    ``wiring._run_sweep`` runs it on a list of the sets reached so far,
    which it reads once, by size in lexicographic order. No pass tracks a
    sign. On Marsh-Rietsch's diagrams every collection into a size k has
    the same Lindstroem-Gessel-Viennot sign, from the paths it jumps over
    and the -1 segments it crosses; that sign is common to the size
    block and cancels in the normalization. So P_I is, up to it, the
    plain sum of the collections' products, and the tropical pass, their
    least weight, is its tropicalization.

    Classically every collection's product comes out scaled by the same
    product Q of the edges' denominators (not by L^|E| for their lcm L),
    which cancels in P_I / P_unit. The pass starts every state at Q and
    keeps it end-scaled, its sum so far times the q of the edges still
    to come: an edge of weight p/q adds p (B_i // q) per move from a
    state i, exact because B_i still holds that q, and leaves the states
    that do not move alone, so only its moves cost big-int work.
    """
    d = build_diagram(v, w)
    if len(x) == len(d.edges):
        try:
            return _run_sweep(d, x, signed)
        except KeyError:
            pass
    raise ValueError(f"expected weight ids {list(d.weight_ids())}, "
                     f"got {sorted(x)}")


def _exact_weights(a: Mapping[int, object]) -> dict[int, tuple[int, int]]:
    """Each weight as the pair (p, q) of ints of its value p/q in lowest
    terms, the form the classical sweep takes (``wiring._run_sweep``) and
    the reconstruction solves (``membership._solve``), read once by
    ``as_integer_ratio``. Each weight must be an int or a Fraction, and
    positive: that is raised only once every weight's type is checked."""
    out, positive = {}, True
    for j, q in a.items():
        if not (isinstance(q, Fraction) or type(q) is int):
            raise ValueError(f"weight {j}: expected an int or Fraction, "
                             f"got {q!r}")
        out[j] = r = q.as_integer_ratio()
        positive = positive and r[0] > 0
    if not positive:
        raise ValueError("weights must be strictly positive")
    return out


def _trop_ints(x: Mapping[int, object]) -> tuple[dict[int, int], int]:
    """``({j: L * x_j}, L)``, L the lcm of the denominators of the
    weights' values: the ints the tropical sweep takes. Each weight must
    be a finite Trop of an int or a Fraction. One loop checks that and
    reads each value once, by ``as_integer_ratio``; the weights are
    checked in the order of ``x``, so the first one that is not such a
    Trop, or is infinite, is the one named."""
    ratios = {}
    for j, val in x.items():
        q = val.value if isinstance(val, Trop) else None
        if isinstance(q, Fraction) or type(q) is int:
            ratios[j] = q.as_integer_ratio()
        elif q is None and isinstance(val, Trop):
            raise ValueError("tropical weights must be finite")
        else:
            raise ValueError(f"weight {j}: expected a Trop of an int or "
                             f"Fraction, got {val!r}")
    L = math.lcm(*[q for _, q in ratios.values()])
    return {j: p * (L // q) for j, (p, q) in ratios.items()}, L


def phi(v: Perm, w: Perm, a: Mapping[int, int | Fraction]) -> PlueckerVector:
    """The cell's coordinates at positive weights: P_I is the sum over
    non-intersecting path collections {1'..|I|'} -> I of the product of
    their edge weights, which by Lindstroem-Gessel-Viennot is the
    top-rows minor of the cell matrix up to one sign per size; then
    canonical per-size normalization. Weights are ints or Fractions.
    The vector holds the raw sweep: its coordinates render on first read,
    and the deciders read the sweep's integers without rendering them.
    """
    x = _exact_weights(a)
    return PlueckerVector._of_raw(len(v), _sweep(v, w, x, True), 1)


def trop_phi(v: Perm, w: Perm, x: Mapping[int, Trop]) -> TropPlueckerVector:
    """Min over non-intersecting path collections {1'..|I|'} -> I of the sum
    of the edge weights; infinity when no collection exists. The same sweep
    as ``phi``, in the min-plus semiring. Weights are finite
    Trops of ints or Fractions. As with ``phi``, the coordinates render on
    first read, and the deciders read the raw sweep.
    """
    a, L = _trop_ints(x)
    return TropPlueckerVector._of_raw(len(v), _sweep(v, w, a, False), L)


# ---------------------------------------------------------------------------
# Incidence relations
# ---------------------------------------------------------------------------

class IncidenceRelation(NamedTuple):
    r: int
    s: int
    I: Index
    J: Index
    terms: tuple[tuple[int, Index, Index], ...]  # (sign, left, right)


def _relation_json(rel: IncidenceRelation) -> dict:
    """A relation's ``I``, ``J`` and ``terms`` with its indices as text,
    as the ``relations`` command and a violated relation's witness print
    them."""
    return {"I": index_to_str(rel.I), "J": index_to_str(rel.J),
            "terms": [[sign, index_to_str(a), index_to_str(b)]
                      for sign, a, b in rel.terms]}


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


@lru_cache(maxsize=16)
def generate_relations(n: int, three_term_only: bool = False,
                       ) -> tuple[IncidenceRelation, ...]:
    """All incidence relations for sizes 1 <= r <= s <= n-1, each listed
    once under one name (I, J), |I| = r-1 and |J| = s+1, in the order
    (r, s, I, J); with the three-term filter, only those with exactly 3
    summands. A pair (I, J) has one summand per element of D = J - I, and
    |D| >= s-r+2, so the filter needs s <= r+1 and skips the other pairs
    before their terms are built. A relation's terms are those of
    ``_relation_terms(I, J)``, sorted by (left, right), each pair of
    equal sizes written as (min, max). Cached for the 16 latest
    (n, filter) pairs.

    With X = I - J, the rule names each relation once:

    - For r < s, the left indices I + {j} meet in I and the right indices
      J - {j} have union J, so every pair (I, J) is its own relation and
      no two of its terms merge.
    - For r = s, every term splits X + D into X + {j} and D - {j}, so two
      terms merge only when X is empty, |D| = 2, and then every term
      cancels: that zero relation is skipped.
    - For r = s and |X| >= 2, X is the only set of elements that every
      term keeps together, so the name is unique.
    - For r = s and |X| = 1, the four names T + {y} and T + ({x} + D - {y}),
      T = I & J and y in {x} + D, give the same terms up to sign. The one
      kept has x < min(D); it is the first of the four generated.

    Every term of a relation pairs a size-r with a size-s coordinate, so
    shifting each size block by a constant, or scaling all coordinates by
    a positive factor, keeps a relation's tropical verdict: the deciders
    scan them on integers (``_first_violated``). Tropically, the full set
    cuts out the nonnegative flag Dressian; on vectors with every
    coordinate finite the three-term set alone does (see ``decide_trop``).
    """
    out: list[IncidenceRelation] = []
    for r in range(1, n):
        for s in range(r, min(r + 2, n) if three_term_only else n):
            for I in itertools.combinations(range(1, n + 1), r - 1):
                for J in itertools.combinations(range(1, n + 1), s + 1):
                    D = set(J).difference(I)
                    # the filter, then for r = s a zero relation or a name
                    # that is not the first of its four
                    if three_term_only and len(D) != 3 or r == s and (
                            len(D) == 2 or len(D) == 3
                            and min(set(I).difference(J)) > min(D)):
                        continue
                    terms = [(c, min(a, b), max(a, b)) if r == s else (c, a, b)
                             for c, a, b in _relation_terms(I, J)]
                    terms.sort(key=lambda t: t[1:])
                    out.append(IncidenceRelation(r, s, I, J, tuple(terms)))
    return tuple(out)


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


if __name__ == "__main__":
    import doctest
    doctest.testmod()
