"""Frozen reference for the integer view: ``_Vector._int_view`` as it was
when it returned ``(sup, values, L)``, a dict of each size's supported
indices in lexicographic order and a dict from each supported index to
its int. ``view_blocks`` turns that into the ``(blocks, L)`` of the raw
sweep's shape. Tests compare the library's view with it, and the frozen
references of the walk and the comparison read their values from it."""

import math
from operator import neg

from tnnflag.plucker import _is_index


def ref_view(p):
    """The view ``(sup, values, L)`` of the vector p."""
    signed, swept = p.signed, p._raw is not None
    if not swept:
        coords, sup = p._coords, {k: [] for k in range(1, p.n)}
        keyed = True
        try:
            for I, val in coords.items():
                if (val.numerator if signed else val.value is not None):
                    sup[len(I)].append(I)
                elif keyed:
                    keyed = _is_index(I, p.n)
            for block in sup.values():
                block.sort()
        except (KeyError, TypeError):
            p.check_indices()
            raise
        if not keyed:
            p.check_indices()
        finite = {I: coords[I] if signed else coords[I].value
                  for block in sup.values() for I in block}
        L = math.lcm(*(x.denominator for x in finite.values()))
        x = {I: q.numerator * (L // q.denominator) for I, q in finite.items()}
        blocks = [(b, [x[I] for I in b]) for b in sup.values()]
    else:
        blocks, L = p._raw
    sup, values = {}, {}
    for k, (indices, x) in enumerate(blocks, start=1):
        if x and ((swept and x[0] < 0) if signed else x[0]):
            x = list(map(neg, x)) if signed else [c - x[0] for c in x]
        sup[k] = list(indices)
        values.update(zip(indices, x))
    return sup, values, L


def view_blocks(sup, values, L):
    """``(sup, values, L)`` as ``(blocks, L)``: per size, the index tuple
    and the list of the ints at those indices."""
    return [(tuple(block), [values[I] for I in block])
            for block in sup.values()], L


def values_blocks(values, n):
    """The blocks of a dict of ints by index: per size 1..n-1, its keys
    of that size sorted, and their values."""
    sizes = [[] for _ in range(1, n)]
    for I in values:
        sizes[len(I) - 1].append(I)
    for block in sizes:
        block.sort()
    return [(tuple(block), [values[I] for I in block]) for block in sizes]
