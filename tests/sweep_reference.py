"""Frozen references shared by the tests: the raw form that ``phi`` and
``trop_phi`` vectors held before the compiled sweep was read in index
order, a list indexed by strand mask (bit i-1 for element i; 0
classically and None tropically where no path collection reaches), and
the read that listed each size block from it."""

import itertools
from functools import cache


@cache
def index_masks(n):
    """Per size 1..n-1, its indices in lexicographic order, each with its
    strand mask."""
    return tuple(tuple((I, sum(1 << (i - 1) for i in I))
                       for I in itertools.combinations(range(1, n + 1), k))
                 for k in range(1, n))


def raw_blocks(n, raw, absent):
    """Per size 1..n-1, the supported indices of a mask-indexed raw list
    with their raw values, in lexicographic order (so the unit comes
    first)."""
    for block in index_masks(n):
        yield [(I, raw[S]) for I, S in block if raw[S] != absent]


@cache
def _mask_of(n):
    return {I: S for block in index_masks(n) for I, S in block}


def raw_sweep(p):
    """The raw sweep that the vector p holds, ``(blocks, L)``, expanded to
    the mask-indexed ``(raw, L)``."""
    blocks, L = p._raw
    raw, mask = [0 if p.signed else None] * (1 << p.n), _mask_of(p.n)
    for indices, values in blocks:
        for I, x in zip(indices, values):
            raw[mask[I]] = x
    return raw, L
