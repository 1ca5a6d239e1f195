"""
Independent brute-force verifiers, each one a check that ``verify`` runs:
supports read off Bruhat intervals enumerated as subword products,
cofactor determinants, the cell matrix and its top-rows minors, every
non-intersecting path collection listed (``enumerate_path_collections``,
on the ``Path`` and ``PathCollection`` records) and tropical coordinates
read off that list, a collection's signed Laurent-monomial weight, the
generators of a cell (``generators``: its extremal indices, the Xi chains
of its support, each with the weight ids on its one path collection,
which ``graph_extremal_collections`` finds in that list, and the fresh
ids by set difference, the reference for the library's compiled walk),
and the source paper's three-term propagation (``_propagate``), which
solves one coordinate at a time from the values at the extremal indices,
over either semiring, each step a three-term relation chosen from the
cell's support. These
deliberately avoid the library's fast code paths so they can serve as
oracles in tests and ``verify``, whose per-cell checks are here too
(``_verify_cell``, with the seeded sample ``_sample_pairs``): the
``verify`` command imports this module when it runs, and no library
module imports it. References that only the tests read live in
``tests/oracle_reference.py``.
flag_matroid_check is the library's own brute-force predicate (it lives in
`extremal`), re-exported here.
"""

__all__ = [
    "determinant_cofactor", "reduced_word_oracle", "support_oracle",
    "flag_matroid_check", "generic_weights", "trop_phi_enumerated",
    "mr_matrix", "phi_minors", "normalize_blocks",
    "enumerate_path_collections", "LaurentMonomial", "Path",
    "PathCollection", "collection_weight", "graph_extremal_collections",
    "Generator", "generators",
]

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple

from .algebra import TROP_INF, Trop
from .extremal import (
    SupportVector, _walk_program, cell_support, extremal_index_set,
    flag_matroid_check, is_supported, xi,
)
from .membership import (
    decide_tnn, decide_trop, propagate_three_term, psi,
    trop_propagate_three_term, trop_psi,
)
from .perms import (
    Perm, bruhat_above, identity, inverse, length, perm_to_str, right_mult_s,
)
from .plucker import (
    Index, PlueckerVector, TropPlueckerVector, _first_violated,
    all_proper_indices, generate_relations, phi, trop_phi,
)
from .wiring import VerticalEdge, WiringDiagram, build_diagram

_MAX_N = 7


def determinant_cofactor(m) -> Fraction:
    """Naive cofactor-expansion determinant (exponential; oracle only)."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for c in range(n):
        if m[0][c] == 0:
            continue
        minor = [row[:c] + row[c + 1:] for row in m[1:]]
        total += (-1) ** c * Fraction(m[0][c]) * determinant_cofactor(minor)
    return total


def reduced_word_oracle(w: Perm) -> tuple[int, ...]:
    """A reduced word for w, built by stripping right descents."""
    letters: list[int] = []
    u = w
    n = len(w)
    while u != identity(n):
        i = next(i for i in range(1, n) if u[i - 1] > u[i])
        u = right_mult_s(u, i)
        letters.append(i)
    return tuple(reversed(letters))


def _subword_products(word: tuple[int, ...], n: int) -> set[Perm]:
    """Products of all subwords of ``word``; for a reduced word of u this
    is the lower interval [e, u] (subword property)."""
    products = {identity(n)}
    for i in word:
        products |= {right_mult_s(u, i) for u in products}
    return products


@lru_cache(maxsize=16)
def _interval_oracle(lo: Perm, hi: Perm) -> frozenset[Perm]:
    """[lo, hi] as [e, hi] cut by the upper set of lo, which reversing the
    one-line notation (right multiplication by w0, an order-reversing
    bijection) maps onto [e, lo w0]."""
    n = len(lo)
    below_hi = _subword_products(reduced_word_oracle(hi), n)
    lo_w0 = Perm(lo[::-1])
    above_lo = {Perm(u[::-1])
                for u in _subword_products(reduced_word_oracle(lo_w0), n)}
    return frozenset(below_hi & above_lo)


def support_oracle(v: Perm, w: Perm, k: int) -> set[Index]:
    """{sorted {u(1..k)} : v^-1 <= u <= w^-1}, the interval enumerated
    once per cell from subword products of two reduced words."""
    n = len(v)
    if n > _MAX_N:
        raise ValueError(f"support_oracle refuses n > {_MAX_N}")
    interval = _interval_oracle(inverse(v), inverse(w))
    if not interval:
        raise ValueError("v is not <= w in Bruhat order")
    return {tuple(sorted(u[:k])) for u in interval}


def _top_minors(m) -> PlueckerVector:
    """P_I = det of the topmost |I| rows of m in columns I (not normalized)."""
    coords: dict[Index, Fraction] = {}
    for I in all_proper_indices(len(m)):
        minor = [[m[r][c - 1] for c in I] for r in range(len(I))]
        val = determinant_cofactor(minor)
        if val != 0:
            coords[I] = val
    return PlueckerVector(len(m), coords)


def mr_matrix(v: Perm, w: Perm, a) -> list[list[Fraction]]:
    """The cell matrix: the product, along w's distinguished word, of the
    upper-triangular weight factors x_i(a_j) and the signed crossing
    factors at v's positions, each applied to the columns of the product.
    """
    d = build_diagram(v, w)
    if set(a) != set(d.weight_ids()):
        raise ValueError(f"expected weight ids {list(d.weight_ids())}, "
                         f"got {sorted(a)}")
    if any(Fraction(x) <= 0 for x in a.values()):
        raise ValueError("weights must be strictly positive")
    n = d.n
    crossings = set(d.v_positions)
    m = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for j, i in enumerate(d.w_word.letters, start=1):
        for row in m:
            if j in crossings:      # s_i-dot: columns (i, i+1) <- (-(i+1), i)
                row[i - 1], row[i] = -row[i], row[i - 1]
            else:                   # x_i(a_j): column i+1 += a_j * column i
                row[i] += Fraction(a[j]) * row[i - 1]
    return m


def normalize_blocks(p):
    """p with each size block times one / its lexicographically least
    supported coordinate, by semiring arithmetic on ``p.coords``, a block
    whose unit is already one copied as it is, each block listed in
    lexicographic order: a normalization apart from the integer view that
    the library's ``canonicalize`` reads."""
    src, one, coords = p.coords, p.one, {}
    for block in p.support().values():
        if block:
            block = sorted(block)
            unit = src[block[0]]
            inv = one / unit
            for I in block:
                coords[I] = src[I] if unit == one else src[I] * inv
    return type(p)(p.n, coords)


def phi_minors(v: Perm, w: Perm, a) -> PlueckerVector:
    """phi as the top-rows minors of the cell matrix, by cofactor
    expansion, then per-size normalization (``normalize_blocks``)."""
    return normalize_blocks(_top_minors(mr_matrix(v, w, a)))


def _primes(k: int) -> list[int]:
    """The first k primes, by trial division."""
    return list(itertools.islice(
        (c for c in itertools.count(2)
         if all(c % d for d in range(2, math.isqrt(c) + 1))), k))


def generic_weights(v: Perm, w: Perm, seed: int) -> dict[int, Fraction]:
    """Positive weights with distinct prime numerators, drawn from the
    first max(30, #weights) primes; two independent draws must produce
    the same support, otherwise both are resampled (protects against
    accidental coordinate collisions to zero).
    """
    ids = build_diagram(v, w).weight_ids()
    rng = random.Random(seed)
    pool = _primes(max(30, len(ids)))

    def draw() -> dict[int, Fraction]:
        primes = rng.sample(pool, len(ids))
        return {j: Fraction(p, rng.randint(1, 7))
                for j, p in zip(ids, primes)}

    for _ in range(50):
        a1, a2 = draw(), draw()
        s1 = {I for I, x in phi(v, w, a1).coords.items() if x != 0}
        s2 = {I for I, x in phi(v, w, a2).coords.items() if x != 0}
        if s1 == s2:
            return a1
    raise RuntimeError("could not stabilize a generic support in 50 draws")


def trop_phi_enumerated(v: Perm, w: Perm, x) -> TropPlueckerVector:
    """trop_phi by listing every non-intersecting path collection
    {1'..|I|'} -> I and taking the least total edge weight."""
    d = build_diagram(v, w)
    if set(x) != set(d.weight_ids()) or any(t.is_inf for t in x.values()):
        raise ValueError("expected one finite weight per vertical edge")
    coords: dict[Index, Trop] = {}
    for I in all_proper_indices(d.n):
        best = TROP_INF
        for coll in enumerate_path_collections(d, range(1, len(I) + 1), I):
            total = Trop(Fraction(0))
            for p in coll.paths:
                for e in p.edges:
                    total = total * x[e.weight_id]
            best = best + total
        if not best.is_inf:
            coords[I] = best
    return normalize_blocks(TropPlueckerVector(d.n, coords))


# ---------------------------------------------------------------------------
# Laurent monomials
# ---------------------------------------------------------------------------

class LaurentMonomial:
    """coefficient * prod(var**e); exponents may be negative.

    Variables are arbitrary hashable keys (weight ids, index sets, ...).
    Zero exponents are dropped so equality of exponent maps is structural.
    """
    __slots__ = ("coefficient", "exponents")

    def __init__(self, coefficient: Fraction = Fraction(1),
                 exponents: dict[Hashable, int] | None = None) -> None:
        self.coefficient = Fraction(coefficient)
        if self.coefficient == 0:
            raise ValueError("monomial coefficient must be nonzero")
        self.exponents = {k: e for k, e in (exponents or {}).items() if e != 0}

    def __repr__(self) -> str:
        return (f"LaurentMonomial(coefficient={self.coefficient!r}, "
                f"exponents={self.exponents!r})")

    def __reduce__(self):
        return (LaurentMonomial, (self.coefficient, self.exponents))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coefficient, self.exponents) == \
            (other.coefficient, other.exponents)

    def __truediv__(self, other: "LaurentMonomial") -> "LaurentMonomial":
        exps = dict(self.exponents)
        for k, e in other.exponents.items():
            exps[k] = exps.get(k, 0) - e
        return LaurentMonomial(self.coefficient / other.coefficient, exps)


# ---------------------------------------------------------------------------
# Path collections
# ---------------------------------------------------------------------------

class Path(NamedTuple):
    """A source-to-sink path: ride the strand rightward, climb each edge."""
    source: int                     # primed label
    start_strand: int
    edges: tuple[VerticalEdge, ...]

    @property
    def sink(self) -> int:
        return self.edges[-1].upper if self.edges else self.start_strand

    def intervals(self) -> tuple[tuple[int, int, int | None], ...]:
        """Closed occupancy intervals (strand, lo, hi) between edge keys,
        starting at key 0; hi None = +infinity."""
        out = []
        strand, lo = self.start_strand, 0
        for e in self.edges:
            out.append((strand, lo, e.key))
            strand, lo = e.upper, e.key
        out.append((strand, lo, None))
        return tuple(out)


class PathCollection(NamedTuple):
    paths: tuple[Path, ...]         # ordered by source label

    @property
    def sinks(self) -> frozenset[int]:
        return frozenset(p.sink for p in self.paths)


def _paths_from(d: WiringDiagram, strand: int, min_key: int,
                ) -> Iterator[tuple[VerticalEdge, ...]]:
    yield ()
    for e in d.edges:
        if e.lower == strand and e.key > min_key:
            for rest in _paths_from(d, e.upper, e.key):
                yield (e,) + rest


def _overlap(a: tuple, b: tuple) -> bool:
    s1, lo1, hi1 = a
    s2, lo2, hi2 = b
    if s1 != s2:
        return False
    return (hi2 is None or lo1 <= hi2) and (hi1 is None or lo2 <= hi1)


def _disjoint_from(intervals: tuple, occupied: list[tuple]) -> bool:
    return not any(_overlap(iv, jv) for iv in intervals for jv in occupied)


def enumerate_path_collections(d: WiringDiagram, sources: Iterable[int],
                               sinks: Iterable[int]) -> list[PathCollection]:
    """All vertex-disjoint collections routing the primed ``sources`` onto
    the strand-numbered ``sinks`` (a complete, possibly empty, list).
    Reference code for the oracle, ``verify`` and the tests; no library
    path lists collections.
    """
    src = sorted(sources)
    snk = frozenset(sinks)
    if len(src) != len(snk):
        raise ValueError("|sources| must equal |sinks|")
    per_source: list[list[tuple[Path, tuple]]] = []   # (path, its intervals)
    for s in src:
        strand = d.strand_of_label(s)
        paths = [Path(s, strand, es)
                 for es in _paths_from(d, strand, 0)
                 if (es[-1].upper if es else strand) in snk]
        per_source.append([(p, p.intervals()) for p in paths])

    out: list[PathCollection] = []

    def backtrack(idx: int, chosen: list[Path], used_sinks: set[int],
                  occupied: list[tuple]) -> None:
        if idx == len(src):
            out.append(PathCollection(tuple(chosen)))
            return
        for p, intervals in per_source[idx]:
            if p.sink in used_sinks or not _disjoint_from(intervals, occupied):
                continue
            backtrack(idx + 1, chosen + [p], used_sinks | {p.sink},
                      occupied + list(intervals))

    backtrack(0, [], set(), [])
    out.sort(key=lambda c: tuple(p.sink for p in c.paths))
    return out


def graph_extremal_collections(d: WiringDiagram, k: int) -> list[PathCollection]:
    """Size k's extremal indices, each with its only path collection
    {1'..k'} -> I, listed by ``enumerate_path_collections``: the Xi chain
    of the cell's support from its lexicographically least index, in the
    chain's order (at k = n, the one index 1..n). These are the
    left-greedy collections, diagonal paths from some sources and paths
    that take every left turn from the rest, as the tests check against
    the greedy walk. An AssertionError names an index with another
    collection, or whose collection's signed weight is not a plain
    positive monomial (``collection_weight``), as the paper proves."""
    if not 1 <= k <= d.n:
        raise ValueError("k out of range")
    sup, out = cell_support(*d.cell), []
    for I in _xi_chain(sup, min(sup.sets[k]) if k < d.n else tuple(range(1, k + 1))):
        colls = enumerate_path_collections(d, range(1, k + 1), I)
        _check(len(colls) == 1, f"extremal index {I} has another path collection")
        mono = collection_weight(colls[0], d)
        _check(mono.coefficient == 1 and set(mono.exponents.values()) <= {1},
               f"extremal coordinate at {I} is not a plain positive monomial")
        out += colls
    return out


class Generator(NamedTuple):
    """One extremal index in traversal order: the weight ids on its only
    path collection, paths by source label and each path's edges by key,
    so the coordinate is their product. ``new_weight_id`` is the one id
    not seen at an earlier extremal index, whose weight is solvable from
    this coordinate; ``in_svw`` marks the independent generating
    indices."""
    index: Index
    weight_ids: tuple[int, ...]
    new_weight_id: int | None
    in_svw: bool


def generators(v: Perm, w: Perm) -> tuple[Generator, ...]:
    """The extremal indices in traversal order (larger size first, then
    each size's Xi chain, which is lexicographic), each with the weight
    ids of its collection (``graph_extremal_collections``) and the least
    of those not met at an earlier index, if any. An index is independent
    when it has such a fresh id, or when its collection is the
    all-diagonal one (at each size's Gale-minimal index) with no ids.
    That each has at most one fresh id, and that the fresh ids are every
    cell weight, ``verify`` checks."""
    d = build_diagram(v, w)
    used, out = set(), []
    for k in range(d.n - 1, 0, -1):
        for c in graph_extremal_collections(d, k):
            ids = tuple(e.weight_id for p in c.paths for e in p.edges)
            new = min(set(ids) - used, default=None)
            used.update(ids)
            out.append(Generator(tuple(sorted(c.sinks)), ids, new,
                                 new is not None or not ids))
    return tuple(out)


def collection_weight(c: PathCollection, d: WiringDiagram) -> LaurentMonomial:
    """sgn of the source->sink assignment, times -1 per crossed negative
    segment, times the product of the vertical-edge weights: a monomial in
    the weight ids with coefficient +1 or -1. A path crosses a segment on
    its strand whose key is in (lo, hi] of one of its intervals: the
    segment sits just left of the letter with its key.
    """
    sinks = [p.sink for p in c.paths]          # paths ordered by source label
    inversions = sum(1 for i in range(len(sinks)) for j in range(i + 1, len(sinks))
                     if sinks[i] > sinks[j])
    sign = -1 if inversions % 2 else 1
    exponents: dict[int, int] = {}
    for p in c.paths:
        for e in p.edges:
            exponents[e.weight_id] = exponents.get(e.weight_id, 0) + 1
        for strand, lo, hi in p.intervals():
            for seg in d.neg_segments:
                if seg.strand == strand and lo < seg.key and (hi is None or seg.key <= hi):
                    sign = -sign
    return LaurentMonomial(sign, exponents)


# ---------------------------------------------------------------------------
# Three-term propagation
# ---------------------------------------------------------------------------

def _xi_chain(p: SupportVector, I: Index) -> list[Index]:
    """I and its Xi-iterates in p, up to the fixed point: from a size's
    lexicographically least supported index, that size's extremal
    chain."""
    chain = [I]
    while (I := xi(p, I)) != chain[-1]:
        chain.append(I)
    return chain


def _xi_walk(p: SupportVector, S: Index, extremals: frozenset[Index]) -> Index:
    """Iterate Xi from the supported index S until it lands in ``extremals``."""
    cur = S
    while cur not in extremals:
        nxt = xi(p, cur)
        if nxt == cur:
            raise AssertionError(f"Xi stalled at non-extremal {cur} (bug)")
        cur = nxt
    return cur


def _case_c_witness(S: Index, b: int, c: int, sup: SupportVector,
                    known: Mapping[Index, object]) -> tuple[int, int]:
    """The strand pair (x, y) of a four-element Pluecker relation on
    T = S - {b, y} that solves for P_S: x < b outside S, y in S - {b} not
    between b and c, P_{S-y+x} and P_{T+c+x} already known (so supported),
    and its third term P_{T+x+y} P_{T+b+c} unsupported. On consistent
    input every such pair gives the same value."""
    for x in range(1, b):
        if x in S:
            continue
        for y in S:
            if y == b or b < y < c:
                continue
            T = set(S) - {b, y}
            if (tuple(sorted((set(S) - {y}) | {x})) in known
                    and tuple(sorted(T | {c, x})) in known
                    and not (is_supported(sup, T | {x, y})
                             and is_supported(sup, T | {b, c}))):
                return x, y
    raise ValueError("three-term propagation: no usable relation at "
                     f"{S} (inconsistent input)")


def _propagate(values: Mapping[Index, object], cell: tuple[Perm, Perm],
               vector_type):
    """Solve the unknown coordinates over ``vector_type``'s semiring; the
    relations used are subtraction-free, so one pass serves both sides.
    One three-term relation per unknown S, from the values at the extremal
    indices (the Xi chains of the cell's support, larger size first, none
    of them zero): largest size first, then by distance (the elements of
    S's first extremal Xi-iterate not in S), then by sum(S), then
    lexicographically."""
    v, w = cell
    n = len(v)
    sup = cell_support(v, w)
    known: dict[Index, object] = {}
    for k in range(n - 1, 0, -1):
        for I in _xi_chain(sup, min(sup.sets[k])):
            if I not in values:
                raise ValueError(f"missing value at extremal index {I}")
            if values[I] == vector_type.zero:
                raise ValueError(f"extremal index {I} has the zero value "
                                 f"{vector_type.render(vector_type.zero)}")
            known[I] = values[I]
    extremals = frozenset(known)

    def val(I) -> object:
        I = tuple(sorted(I))
        if not is_supported(sup, I):
            return vector_type.zero
        if I not in known:
            raise AssertionError(f"propagation needs {I} before it is known (bug)")
        return known[I]

    for k in range(n - 1, 0, -1):
        first = {S: _xi_walk(sup, S, extremals)
                 for S in sup.sets[k] if S not in extremals}
        order = sorted(first, key=lambda S: (len(set(first[S]) - set(S)), sum(S), S))
        for S in order:
            b = min(set(S) - set(first[S]))
            it = S
            while b in it:
                it = xi(sup, it)
            cands = [c for c in set(it) - set(S)
                     if c > b and is_supported(sup, tuple(sorted((set(S) - {b}) | {c})))]
            if not cands:
                raise ValueError(f"three-term propagation stuck at {S} "
                                 "(inconsistent input)")
            c = min(cands)
            outside = [a for a in range(1, n + 1) if a not in S and a < b]
            sb = set(S) - {b}
            a_full = [a for a in outside
                      if is_supported(sup, tuple(sorted(S + (a,))))]
            if a_full:
                a = max(a_full)
                known[S] = (val(sb | {c}) * val(set(S) | {a})
                            + val(sb | {a}) * val(set(S) | {c})) / val(sb | {a, c})
                continue
            a_swap = [a for a in outside if is_supported(sup, tuple(sorted(sb | {a})))]
            if a_swap:
                a = max(a_swap)
                d_cands = [dd for dd in range(b + 1, n + 1) if dd not in S
                           and is_supported(sup, tuple(sorted(S + (dd,))))]
                if not d_cands:
                    raise ValueError(f"three-term propagation stuck at {S} "
                                     "(inconsistent input)")
                dd = min(d_cands)
                known[S] = val(sb | {a}) * val(set(S) | {dd}) / val(sb | {a, dd})
                continue
            x, y = _case_c_witness(S, b, c, sup, known)
            known[S] = (val((set(S) - {y}) | {x}) * val(sb | {c})
                        / val((set(S) - {b, y}) | {c, x}))
    return vector_type(n, known).canonicalize()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check(ok: bool, message: str) -> None:
    """Raise AssertionError(message) unless ok. Unlike an ``assert``
    statement, this still checks under ``python -O``."""
    if not ok:
        raise AssertionError(message)


def _verify_cell(v: Perm, w: Perm, seed: int, draws: int) -> dict:
    """Oracle checks for one cell, with ``draws`` weight draws, and the
    cell's entry of the ``verify`` report; raises AssertionError naming
    the first check that fails (``_check``)."""
    n = len(v)
    sup = cell_support(v, w)
    for k in range(1, n):
        _check(sup.sets[k] == support_oracle(v, w, k),
               f"support mismatch at size {k} for "
               f"({perm_to_str(v)},{perm_to_str(w)})")
    # the deciders rely on these two theorems without re-checking them on
    # members: a cell's support is a flag matroid, and its tropical points
    # positively solve every three-term relation
    _check(flag_matroid_check(sup.sets), "cell support is not a flag matroid")
    three_term = generate_relations(n, True)
    ext = extremal_index_set(sup)
    # the oracle's generators list each extremal index's collections,
    # check that there is one, weighted by a plain positive monomial, and
    # read their weight ids off it
    gens = generators(v, w)
    _check({g.index for g in gens} == ext,
           "generators differ from the extremal chains of the support")
    d = build_diagram(v, w)
    _check(all(e.lower < e.upper for e in d.edges), "a vertical edge goes down")
    used: set[int] = set()
    for g in gens:
        fresh = set(g.weight_ids) - used
        used |= fresh
        _check(fresh == {g.new_weight_id} - {None},
               f"extremal index {g.index} introduces {len(fresh)} new edges")
    _check({g.new_weight_id for g in gens} - {None} == set(d.weight_ids()),
           "not every weight got an independent generator")
    independent = [g for g in gens if g.in_svw]
    _check(len(independent) == (n - 1) + length(w) - length(v),
           "independent generator count mismatch")
    # _solve runs the library's one greedy walk, compiled: one step per
    # independent generator, which reads its value by position in the
    # cell's sorted support block and divides by the ids added since the
    # generator before it; the propagations and s_vw read its extremal
    # indices and its steps' indices
    indices, steps, extremal = _walk_program(v, w)
    _check(indices == tuple(tuple(sorted(sup.sets[k])) for k in range(1, n))
           and extremal == tuple(g.index for g in gens)
           and len(steps) == len(independent),
           "the walk program does not list the cell's indices and generators")
    last: dict[int, tuple[int, ...]] = {}   # by size: the last independent ids
    for g, (k, i, new, others) in zip(independent, steps):
        _check(k == len(g.index) and indices[k - 1][i:i + 1] == (g.index,)
               and new == g.new_weight_id and sorted(g.weight_ids) == sorted(
                   [*last.get(k, ()), *others, *{new} - {None}]),
               f"the walk step at {g.index} disagrees with its generator")
        last[k] = g.weight_ids
    for t in range(draws):
        a = generic_weights(v, w, seed=seed + t)
        # each fresh vector is decided before anything reads its
        # coordinates, so the deciders read the raw sweep it holds
        p = phi(v, w, a)
        cert = decide_tnn(p)
        _check(cert.verdict == "member" and cert.cell == (v, w),
               "decide_tnn rejected a parameterized point")
        if t == 0:
            _check(p.coords == phi_minors(v, w, a).coords,
                   "phi differs from the minors of the cell matrix")
        _check(psi(v, w, p) == a, "psi does not invert phi")
        x = {j: Trop.of(val) for j, val in a.items()}
        q = trop_phi(v, w, x)
        tcert = decide_trop(q)
        _check(tcert.verdict == "member" and tcert.cell == (v, w),
               "decide_trop rejected a parameterized point")
        if t == 0:
            _check(q.coords == trop_phi_enumerated(v, w, x).coords,
                   "trop_phi differs from path-collection enumeration")
        values = {I: t.value for I, t in q.coords.items()}
        _check(_first_violated(three_term, values.get) is None,
               "trop_phi violates a three-term relation")
        _check(trop_psi(v, w, q) == x, "trop_psi does not invert trop_phi")
        for r, propagate in ((p, propagate_three_term),
                             (q, trop_propagate_three_term)):
            # the library's propagation gives the point, in its dict
            # order, and so does the oracle's three-term solver
            values = {I: r.coord(I) for I in ext}
            ours = propagate(values, (v, w))
            _check(list(ours.coords.items()) == list(r.coords.items()),
                   f"{r.mode} three-term propagation mismatch")
            _check(ours == _propagate(values, (v, w), type(r)),
                   f"{r.mode} propagation differs from the three-term solver")
    return {"v": perm_to_str(v), "w": perm_to_str(w),
            "dimension": length(w) - length(v)}


def _sample_pairs(n: int, seed: int) -> tuple[int, list[tuple[Perm, Perm]]]:
    """The number of pairs v <= w of S_n, and the 20 that
    ``random.Random(seed).sample(bruhat_pairs(n), 20)`` draws, by rank in
    ``bruhat_above``'s masks: a range that long gives the same ranks."""
    perms, above = bruhat_above(n)
    total = sum(m.bit_count() for m in above)
    out = []
    for rank in random.Random(seed).sample(range(total), min(20, total)):
        for v, m in zip(perms, above):
            if rank < m.bit_count():
                break
            rank -= m.bit_count()
        bits = [i for i, bit in enumerate(bin(m)[:1:-1]) if bit == "1"]
        out.append((v, perms[bits[rank]]))
    return total, out
