"""
Extremal index machinery, the library's support layer: the basis-exchange
map Xi, extremal chains per size, a brute-force check of necessary
flag-matroid conditions on strand masks (bit i for element i), the cell
read off the first and last indices of each size (``_lex_chain_cell``,
which checks that they form flags for ``extremal_indices`` and the
deciders alike, through one cache of each flag's permutation, and takes
ends of exact ints, which each caller checks where its input enters), and
the independent generating indices (``s_vw``), read off the inverse walk
that the cached wiring diagram holds (its ``walk``, compiled with it from
its greedy walk, ``wiring._compile_walk``), the library's one product of
that walk: the cell's indices per size, its extremal indices in traversal
order, and one step per independent generating index, which the deciders
run and the propagations read. The counts the paper's theorems promise for
the walk, and its agreement with the oracle's generators, built from the
Xi chains and the path collections listed one by one
(``oracle.generators``), are checked by ``verify`` and the tests.

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
    "SupportVector", "ExtremalChain",
    "is_supported", "xi", "extremal_indices",
    "extremal_index_set", "cell_support", "s_vw",
    "flag_matroid_check",
]

from functools import lru_cache, reduce
from operator import le, or_
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

from .perms import Perm
from .plucker import Index, _Vector
from .wiring import _CELL_CACHE_SIZE, build_diagram


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
    the sets of strands that the diagram's sweep program reaches, as its
    walk program lists them. (These are the prefixes {u(1..k)} over the
    Bruhat interval v^-1 <= u <= w^-1, which the oracle checks.)"""
    return SupportVector(len(v), {
        k: frozenset(block)
        for k, block in enumerate(build_diagram(v, w).walk[0], start=1)})


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
    form a flag (``_lex_chain_cell``). That check masks every basis
    first, which raises TypeError for an entry that is not an int; a
    bool entry is masked, and read, as the int it equals, so the cell
    read's cache of flags answers for it as the uncached body would.
    Bases are tuples, as a ``SupportVector``'s are: a chain that starts
    at a list or a frozenset raises TypeError there.
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
    ``support``, a list of n-1 sequences of sorted tuples of ints, entry
    k-1 of size k: the deciders pass each size's supported indices in
    lexicographic order (the index tuples of ``_int_view``'s blocks),
    ``extremal_indices`` its chains. Raises ValueError when a size is
    empty, the first or the last indices do not form a flag of subsets
    of 1..n, or v is not <= w. v and w are the two flags' permutations,
    each one lookup in ``_flag_perm``'s cache, and v <= w exactly when
    each size's pair is in Gale order (the tableau criterion): the
    flags' elements, flattened, compare pairwise.

    The ends must be tuples of ints, since a cached flag answers for any
    end equal to it, such as one with an entry 1.0 or Fraction(1). Each
    caller guarantees that where its input enters: ``_int_view`` raises
    ``bad index`` for a key with any other entry, ``extremal_indices``
    masks every basis first (``flag_matroid_check``, where only an int
    or a bool, which reads as the int it equals, gets through), and
    ``membership.identify_cell`` checks its support's entries."""
    for k, block in enumerate(support, start=1):
        if not block:
            raise ValueError(f"no supported index of size {k}")
    v, lo = _flag_perm(tuple([b[0] for b in support]), n)
    w, hi = _flag_perm(tuple([b[-1] for b in support]), n)
    if not all(map(le, lo, hi)):
        raise ValueError("no cell: v is not <= w in Bruhat order")
    return v, w


@lru_cache(maxsize=_CELL_CACHE_SIZE, typed=True)
def _flag_perm(flag: tuple[Index, ...], n: int) -> tuple[Perm, tuple[int, ...]]:
    """The permutation u whose prefix sets u^-1(1..k) are the indices of
    ``flag``, one of each size 1..n-1, filled directly: k at the element
    e that the size-k index adds (u(e) = k), and n at the one element
    left over; with it, the flag's indices flattened into one tuple, in
    which each size's index takes k places, so two flags' tuples line up
    size by size. Raises ValueError when they do not form a flag of
    subsets of 1..n. S_n has n! flags and many more cells, and a cell's
    v and w are each one flag's permutation, so a cell not seen before
    mostly finds both here: the cache keeps as many flags as the
    per-cell caches keep cells."""
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
    return Perm(tuple(perm)), sum(flag, ())


def extremal_index_set(p: _Vector | SupportVector) -> frozenset[Index]:
    return frozenset(I for ch in extremal_indices(p) for I in ch.chain)


# ---------------------------------------------------------------------------
# The compiled inverse walk
# ---------------------------------------------------------------------------

def s_vw(v: Perm, w: Perm) -> list[Index]:
    """The independent generating indices, in traversal order: the index
    each step of the cell's walk program (the cached diagram's ``walk``)
    reads, the n-1 Gale-minimal indices plus one index per cell weight,
    so (n-1) + length(w) - length(v) of them, as ``verify`` and the tests
    check."""
    indices, steps, _ = build_diagram(v, w).walk
    return [indices[k - 1][i] for k, i, _, _ in steps]


if __name__ == "__main__":
    import doctest
    doctest.testmod()
