"""
Extremal index machinery, the library's support layer: the basis-exchange
map Xi, extremal chains per size, a brute-force check of necessary
flag-matroid conditions on strand masks (bit i for element i), the cell
read off the first and last indices of each size (``_lex_chain_cell``,
which checks that they form flags for ``extremal_indices`` and the
deciders alike, cached per pair of ends and, behind that, per flag), and
the generators of a cell: its extremal indices read off the wiring
diagram, each with the weight ids on its path collection, whose fresh
ids give the independent generating index set, and the inverse walk
compiled per cell in one loop over the same greedy walk
(``_walk_program``), which the deciders run. The counts the paper's
theorems promise for the generators, and the program's agreement with
them, are checked by ``verify`` and the tests.

Everything here reads only the support (nonzero / finite) pattern: the
chain functions take classical or tropical vectors or bare supports and
read each vector's support once, and Xi reads supports only.

>>> from tnnflag.perms import perm_from_str
>>> sup = cell_support(perm_from_str("1324"), perm_from_str("4213"))
>>> xi(sup, (1,))
(3,)
>>> xi(sup, (1, 3))
(2, 3)
"""

__all__ = [
    "SupportVector", "ExtremalChain", "Generator",
    "is_supported", "xi", "extremal_indices",
    "extremal_index_set", "cell_support", "generators", "s_vw",
    "flag_matroid_check",
]

from functools import lru_cache, reduce
from itertools import chain
from operator import le, or_
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

from .perms import Perm
from .plucker import Index, _Vector
from .wiring import (
    _CELL_CACHE_SIZE, _greedy_prefixes, _new_record, _reached, build_diagram,
)


class SupportVector(NamedTuple):
    """A bare support pattern: which indices are nonzero/finite, per size."""
    n: int
    sets: Mapping[int, frozenset[Index]]


def is_supported(p: SupportVector, I) -> bool:
    """Whether the index I, in any order, is in the support p."""
    return tuple(sorted(I)) in p.sets.get(len(I), ())


def _mask(I: Iterable[int]) -> int:
    """The strand mask of I: bit i for element i."""
    mask = 0
    for i in I:
        mask |= 1 << i
    return mask


def _bits(mask: int) -> list[int]:
    """The one-bit masks of the elements of mask."""
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


def flag_matroid_check(support: Mapping[int, Collection[Index]]) -> bool:
    """Necessary conditions only for a flag matroid: basis exchange within
    each size, and pairwise containment (for sizes j < k, each j-basis lies
    in a k-basis and each k-basis contains a j-basis). It accepts this
    support, although {1} is a flat of the size-1 matroid but not of the
    size-2 one, so it is not a flag matroid:

    >>> flag_matroid_check({1: {(2,), (3,)}, 2: {(1, 3), (2, 3)}})
    True

    The bases are strand masks, so a tuple with a repeated element is
    never a basis. Each basis B1 builds its exchange table once: for each
    x in B1, the mask of the elements y outside B1 for which B1 - x + y is
    a basis. Every basis B2 without x must meet that mask. Containment,
    ``B & ~C == 0``, is transitive, so consecutive sizes suffice.
    """
    classes = {k: {_mask(B) for B in bases} for k, bases in support.items()}
    for k, bases in classes.items():
        if not bases or any(len(B) != k for B in support[k]) \
                or any(B.bit_count() != k for B in bases):
            return False
        elements = reduce(or_, bases)
        for B1 in bases:
            outside = _bits(elements & ~B1)
            for x in _bits(B1):
                meets = x | sum(y for y in outside if B1 ^ x | y in bases)
                # a basis missing meets lies in elements & ~meets
                if (elements & ~meets).bit_count() >= k \
                        and not all(B2 & meets for B2 in bases):
                    return False
    sizes = sorted(classes)
    return all(all(any(not B & ~C for C in classes[k]) for B in classes[j])
               and all(any(not B & ~C for B in classes[j]) for C in classes[k])
               for j, k in zip(sizes, sizes[1:]))


def cell_support(v: Perm, w: Perm) -> SupportVector:
    """Indices supported on the cell: the sink sets I that some
    non-intersecting path collection {1'..|I|'} -> I reaches, which are
    the sets of strands that the diagram's sweep program reaches
    (``wiring._reached``). (These are the prefixes {u(1..k)}
    over the Bruhat interval v^-1 <= u <= w^-1, which the oracle
    checks.)"""
    return SupportVector(len(v), {
        k: frozenset(block)
        for k, block in enumerate(_reached(build_diagram(v, w)), start=1)})


# ---------------------------------------------------------------------------
# Xi and extremal chains
# ---------------------------------------------------------------------------

def xi(p: SupportVector, I) -> Index:
    """Raise the index maximally in the support p: swap out the largest
    element b of I that some larger element can replace with the index
    staying supported, for the largest such element. Fixed point when
    there is no such b or I itself is unsupported. A vector's support is
    ``SupportVector(p.n, p.support())``."""
    I = tuple(sorted(I))
    if not is_supported(p, I):
        return I
    inside = set(I)
    outside = [j for j in range(1, p.n + 1) if j not in inside]
    for b in reversed(I):
        rest = inside - {b}
        beyond = [j for j in outside if j > b and is_supported(p, rest | {j})]
        if beyond:
            return tuple(sorted(rest | {max(beyond)}))
    return I


class ExtremalChain(NamedTuple):
    size: int
    chain: tuple[Index, ...]   # Gale-minimal first, Gale-maximal last


def extremal_indices(p: _Vector | SupportVector) -> list[ExtremalChain]:
    """Per size, the Xi-orbit chain from the Gale-minimal supported index,
    which is the lexicographically least: a size block that passes basis
    exchange is a matroid, and nonempty. A vector's support is read once,
    and Xi runs on it, so a vector that holds the raw sweep keeps it.

    Raises ValueError when the support, with each absent size 1..n-1 read
    as an empty block, fails the necessary conditions of
    ``flag_matroid_check``, or the chain starts or the chain ends do not
    form a flag (``_lex_chain_cell``).
    """
    if not isinstance(p, SupportVector):
        p = SupportVector(p.n, p.support())
    if not flag_matroid_check({**dict.fromkeys(range(1, p.n), ()), **p.sets}):
        raise ValueError("support is not a flag matroid")
    out = []
    for k in range(1, p.n):
        chain = [min(p.sets[k])]
        while True:
            nxt = xi(p, chain[-1])
            if nxt == chain[-1]:
                break
            chain.append(nxt)
        out.append(ExtremalChain(k, tuple(chain)))
    _lex_chain_cell([ch.chain for ch in out], p.n)
    return out


def _lex_chain_cell(support: Sequence[Sequence[Index]], n: int,
                    ) -> tuple[Perm, Perm]:
    """The cell read off the first and last index of each size 1..n-1 of
    ``support``, a list of n-1 sequences of sorted tuples, entry k-1 of
    size k: the deciders pass each size's supported indices in
    lexicographic order (the index tuples of ``_int_view``'s blocks),
    ``extremal_indices`` its chains. Raises ValueError when a size is
    empty, the first or the last indices do not form a flag of subsets
    of 1..n, or v is not <= w (``_ends_cell``). The read is cached at two
    levels: ends that are tuples of ints 0..255 are looked up in
    ``_ends_cell``'s cache of pairs, and on a miss each flag in
    ``_flag_perm``'s cache of flags. Any other ends go to both bodies
    uncached, so a cached cell or permutation never answers for an end
    that only equals an index, such as one with an entry 1.0 or
    Fraction(1)."""
    for k, block in enumerate(support, start=1):
        if not block:
            raise ValueError(f"no supported index of size {k}")
    mins, maxs = tuple([b[0] for b in support]), tuple([b[-1] for b in support])
    try:    # raises for an end not a tuple, and an entry not an int 0..255
        bytes(sum(mins + maxs, ()))
    except (TypeError, ValueError):
        return _ends_cell.__wrapped__(mins, maxs, n, _flag_perm.__wrapped__)
    return _ends_cell(mins, maxs, n)


@lru_cache(maxsize=_CELL_CACHE_SIZE, typed=True)
def _flag_perm(flag: tuple[Index, ...], n: int) -> Perm:
    """The permutation u whose prefix sets u^-1(1..k) are the indices of
    ``flag``, one of each size 1..n-1, filled directly: k at the element
    e that the size-k index adds (u(e) = k), and n at the one element
    left over. Raises ValueError when they do not form a flag of subsets
    of 1..n. S_n has n! flags and many more cells, and a cell's v and w
    are each one flag's permutation, so a cell not seen before mostly
    finds both here: the cache keeps as many flags as the per-cell
    caches keep cells."""
    full = (1 << n + 1) - 2             # the strand mask of 1..n
    perm = [n] * n
    seen = 0                            # the strand mask of the last index
    for k, I in enumerate(flag, start=1):
        mask = _mask(I)
        new = mask ^ seen               # must be one element of 1..n
        if len(I) != k or mask & seen != seen or new & (new - 1) \
                or not new & full:
            raise ValueError("Gale-extreme indices do not form a flag")
        perm[new.bit_length() - 2] = k
        seen = mask
    return Perm(tuple(perm))


@lru_cache(maxsize=64, typed=True)
def _ends_cell(mins: tuple[Index, ...], maxs: tuple[Index, ...], n: int,
               flag_perm=_flag_perm) -> tuple[Perm, Perm]:
    """The cell whose flags are the prefix sets of v^-1 and w^-1, given
    the first and the last index of each size 1..n-1, as
    ``_lex_chain_cell`` reads them: v and w are ``flag_perm`` of each
    half (``_flag_perm``, or its uncached body for ends that must not be
    looked up). Raises ValueError when either half does not form a flag
    of subsets of 1..n, or v is not <= w. v <= w exactly when each
    size's pair is in Gale order (the tableau criterion). A cell is read
    once per pair of ends, so a decider's reconstruction finds the one
    that the other semiring's, or an earlier call's, read by one lookup:
    the cache keeps the 64 latest."""
    v, w = flag_perm(mins, n), flag_perm(maxs, n)
    # each size's index k has k elements, so the flattened pairs line up
    if not all(map(le, chain.from_iterable(mins), chain.from_iterable(maxs))):
        raise ValueError("no cell: v is not <= w in Bruhat order")
    return v, w


def extremal_index_set(p: _Vector | SupportVector) -> frozenset[Index]:
    return frozenset(I for ch in extremal_indices(p) for I in ch.chain)


# ---------------------------------------------------------------------------
# Independent generators
# ---------------------------------------------------------------------------

class Generator(NamedTuple):
    """One extremal index in traversal order: the weight ids on its
    left-greedy path collection (its only one, as ``verify`` and the
    tests check), paths by source label and each path's edges by key, so
    the coordinate is their product. ``new_weight_id`` is the one id not
    seen at an earlier extremal index, whose weight is solvable from this
    coordinate; ``in_svw`` marks the independent generating indices. The
    deciders' walk reads ``_walk_program`` instead."""
    index: Index
    weight_ids: tuple[int, ...]
    new_weight_id: int | None
    in_svw: bool


@lru_cache(maxsize=_CELL_CACHE_SIZE)
def generators(v: Perm, w: Perm) -> tuple[Generator, ...]:
    """Extremal indices in traversal order (larger size first, then
    lexicographically): the sink sets of each size's left-greedy
    prefixes (``wiring._greedy_prefixes``), each with its collection's
    edge weight ids and the walk's fresh id, read off the walk that
    ``oracle.graph_extremal_collections`` wraps. Each prefix adds one
    source's climbed path to the one before it, so its ids, by source
    label, are that path's put in its source's place, and only that
    path's ids can be fresh. An index is independent when it adds a
    fresh id, or when its collection is the all-diagonal one (at each
    size's Gale-minimal index) with no ids. That each adds at most one
    fresh id, and that the fresh ids are every cell weight, are checked
    by ``verify`` and the tests, not here."""
    d = build_diagram(v, w)
    walks, out = _greedy_prefixes(d), []
    for k in range(d.n - 1, 0, -1):
        paths = [()] * (k + 1)          # by source label, the ids climbed
        for I, s, climbed, new in walks[k - 1]:
            paths[s] = climbed
            ids = sum(paths, ())
            out.append(_new_record(Generator, (I, ids, new, new is not None or not ids)))
    return tuple(out)


@lru_cache(maxsize=_CELL_CACHE_SIZE)
def _walk_program(v: Perm, w: Perm) -> tuple[tuple, tuple]:
    """The inverse walk compiled for the cell (v, w), which
    ``membership._solve`` runs: per size 1..n-1, the indices that the
    sweep reaches (``wiring._reached``), in lexicographic order; and one
    step per independent generator, in traversal order, (its size, its
    index's position in that size's indices, its new weight id, or None
    at the size's unit, the ids to divide by). Within a size each
    left-greedy collection is the one before it plus one climbed path,
    so the value at a step, divided by the value at the step before it in
    its size, is the product of the weights on the paths added since:
    those of the dependent generators skipped and the step's own. The
    ids to divide by are those less the new id. Built in one loop over
    the greedy walk's prefixes (``wiring._greedy_prefixes``, which gives
    each its fresh id, the rule ``generators`` reads too), with no
    records: each size's unit is its lexicographically least index, at
    position 0, and a prefix with no fresh id only adds its path to
    those since the base. ``verify`` checks each step against the
    generators."""
    d = build_diagram(v, w)
    reached, walks, steps = _reached(d), _greedy_prefixes(d), []
    for k in range(d.n - 1, 0, -1):
        block, i, over = reached[k - 1], 0, ()  # over: the paths since the base
        steps.append((k, 0, None, ()))          # the size's unit
        for I, _, climbed, new in walks[k - 1]:
            over += climbed
            if new is None:
                continue
            i = block.index(I, i)
            j = over.index(new)                 # new is in over once
            steps.append((k, i, new, over[:j] + over[j + 1:]))
            over = ()
    return tuple(reached), tuple(steps)


def s_vw(v: Perm, w: Perm) -> list[Index]:
    """The independent generating indices, in traversal order: the n-1
    Gale-minimal indices plus one index per cell weight, so
    (n-1) + length(w) - length(v) of them, as ``verify`` and the tests
    check."""
    return [g.index for g in generators(v, w) if g.in_svw]


if __name__ == "__main__":
    import doctest
    doctest.testmod()
