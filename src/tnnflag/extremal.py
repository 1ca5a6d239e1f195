"""
Extremal index machinery: the basis-exchange map Xi, extremal chains per
size, a brute-force check of necessary flag-matroid conditions, and the
generators of a cell: its extremal indices read off the wiring diagram,
each with the weight ids on its path collection, whose fresh ids give the
independent generating index set. The generators hold only what
``psi``'s walk reads; the counts the paper's theorems promise for them
are checked by ``verify`` and the tests.

All maps only consult the support (nonzero / finite) pattern, so they act
uniformly on classical vectors, tropical vectors, and bare cell supports.

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
    "precedes_key", "flag_matroid_check",
]

from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Union

from .perms import Perm
from .plucker import (
    Index, PlueckerVector, TropPlueckerVector, _raw_blocks, _sweep,
)
from .wiring import build_diagram, graph_extremal_collections


class SupportVector(NamedTuple):
    """A bare support pattern: which indices are nonzero/finite, per size."""
    n: int
    sets: Mapping[int, frozenset[Index]]


Supported = Union[PlueckerVector, TropPlueckerVector, SupportVector]


def is_supported(p: Supported, I) -> bool:
    I = tuple(sorted(I))
    if isinstance(p, SupportVector):
        return I in p.sets.get(len(I), frozenset())
    return p.coord(I) != p.zero


def flag_matroid_check(support: Mapping[int, Iterable[Index]]) -> bool:
    """Necessary conditions only for a flag matroid: basis exchange within
    each size, and pairwise containment (for sizes j < k, each j-basis lies
    in a k-basis and each k-basis contains a j-basis). It accepts this
    support, although {1} is a flat of the size-1 matroid but not of the
    size-2 one, so it is not a flag matroid:

    >>> flag_matroid_check({1: {(2,), (3,)}, 2: {(1, 3), (2, 3)}})
    True
    """
    classes = {k: {tuple(sorted(B)) for B in bases}
               for k, bases in support.items()}
    for k, bases in classes.items():
        if not bases:
            return False
        if any(len(B) != k for B in bases):
            return False
        for B1 in bases:
            for B2 in bases:
                for x in set(B1) - set(B2):
                    rest = set(B1) - {x}
                    if not any(tuple(sorted(rest | {y})) in bases
                               for y in set(B2) - set(B1)):
                        return False
    sizes = sorted(classes)
    for j in sizes:
        for k in sizes:
            if j >= k:
                continue
            for B in classes[j]:
                if not any(set(B) <= set(C) for C in classes[k]):
                    return False
            for C in classes[k]:
                if not any(set(B) <= set(C) for B in classes[j]):
                    return False
    return True


def cell_support(v: Perm, w: Perm) -> SupportVector:
    """Indices supported on the cell: the sink sets I that some
    non-intersecting path collection {1'..|I|'} -> I reaches, read off
    the raw min-plus sweep at all-zero weights as the sets it reaches.
    (These are the prefixes {u(1..k)} over the Bruhat interval
    v^-1 <= u <= w^-1, which the oracle checks.)"""
    n = len(v)
    raw, _ = _sweep(v, w, dict.fromkeys(build_diagram(v, w).weight_ids(), 0),
                    False)
    return SupportVector(n, {k: frozenset(I for I, _ in found) for k, found
                             in enumerate(_raw_blocks(n, raw, None), start=1)})


# ---------------------------------------------------------------------------
# Xi and extremal chains
# ---------------------------------------------------------------------------

def xi(p: Supported, I) -> Index:
    """Raise the index maximally: swap out the largest element b of I that
    some larger element can replace with the index staying supported, for
    the largest such element. Fixed point when there is no such b or I
    itself is unsupported."""
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


def extremal_indices(p: Supported) -> list[ExtremalChain]:
    """Per size, the Xi-orbit chain from the Gale-minimal supported index,
    which is the lexicographically least: a size block that passes basis
    exchange is a matroid, and nonempty.

    Raises ValueError when the support, with each absent size 1..n-1 read
    as an empty block, fails the necessary conditions of
    ``flag_matroid_check``, or the chain starts or the chain ends do not
    form a flag.
    """
    sup = p.sets if isinstance(p, SupportVector) else p.support()
    if not flag_matroid_check({**dict.fromkeys(range(1, p.n), ()), **sup}):
        raise ValueError("support is not a flag matroid")
    out = []
    for k in range(1, p.n):
        chain = [min(sup[k])]
        while True:
            nxt = xi(p, chain[-1])
            if nxt == chain[-1]:
                break
            chain.append(nxt)
        out.append(ExtremalChain(k, tuple(chain)))
    for a, b in zip(out, out[1:]):
        if not all(set(a.chain[i]) <= set(b.chain[i]) for i in (0, -1)):
            raise ValueError("Gale-extreme indices do not form a flag")
    return out


def extremal_index_set(p: Supported) -> frozenset[Index]:
    return frozenset(I for ch in extremal_indices(p) for I in ch.chain)


def precedes_key(I: Index):
    """Sort key for the traversal order: larger size first, then lex."""
    return (-len(I), I)


# ---------------------------------------------------------------------------
# Independent generators
# ---------------------------------------------------------------------------

class Generator(NamedTuple):
    """One extremal index as ``psi``'s walk reads it: the weight ids on
    its left-greedy path collection (its only one, as ``verify`` and the
    tests check), paths by source label and each path's edges by key, so
    the coordinate is their product. ``new_weight_id`` is the one id not
    seen at an earlier extremal index, whose weight is solvable from this
    coordinate; ``in_svw`` marks the independent generating indices."""
    index: Index
    weight_ids: tuple[int, ...]
    new_weight_id: int | None
    in_svw: bool


@lru_cache(maxsize=None)
def generators(v: Perm, w: Perm) -> tuple[Generator, ...]:
    """Extremal indices in traversal order: the sink sets of each size's
    ``graph_extremal_collections``, each with its collection's edge weight
    ids. An index is independent when it adds a fresh id, or when its
    collection is the all-diagonal one (at each size's Gale-minimal index)
    with no ids at all. That each adds at most one fresh id, and that the
    fresh ids are every cell weight, are checked by ``verify`` and the
    tests, not here."""
    d = build_diagram(v, w)
    # a vertex-disjoint collection uses each edge once
    ids = {tuple(sorted(c.sinks)): tuple(e.weight_id for p in c.paths
                                         for e in p.edges)
           for k in range(1, len(v)) for c in graph_extremal_collections(d, k)}
    used: set[int] = set()
    out: list[Generator] = []
    for I in sorted(ids, key=precedes_key):
        new = min(set(ids[I]) - used, default=None)
        used.update(ids[I])
        out.append(Generator(I, ids[I], new, new is not None or not ids[I]))
    return tuple(out)


def s_vw(v: Perm, w: Perm) -> list[Index]:
    """The independent generating indices, in traversal order: the n-1
    Gale-minimal indices plus one index per cell weight, so
    (n-1) + length(w) - length(v) of them, as ``verify`` and the tests
    check."""
    return [g.index for g in generators(v, w) if g.in_svw]


if __name__ == "__main__":
    import doctest
    doctest.testmod()
