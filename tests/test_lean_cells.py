"""Differential tests of the per-cell bookkeeping against frozen copies of
the bodies it replaced.

`build_diagram` makes its records with `tuple.__new__` and orders its
sweep's states by a per-n rank table; the frozen copy below built them
with the records' own constructors and filtered every strand mask of
`_lex_table`. `generators` reads each prefix's weight ids off the one
source that the walk adds; the frozen copy summed every path of every
prefix. Both must give equal records of the same types, sweep included,
on every S3-S5 cell, 300 seeded S6 cells and the S6-S8 top cells.

`_lex_chain_cell` reads the cell off the chain ends through a small
cache of pairs of ends (`extremal._ends_cell`), and on a miss each
flag's permutation through a cache of flags (`extremal._flag_perm`).
With both caches cleared, with both filled by the same ends (and by the
int ends that equal them), with the pairs cleared and the flags left as
those ends filled them, and as the frozen uncached copy, it must give
the same cell, or the same exception type and text, on the ends of
every S3-S5 cell and on malformed ends: an empty block, ends that are no
flag, v not <= w, entries that are not ints, float or bool entries equal
to ints, and ends given as lists. So float, Fraction and str ends are
read after the int ends equal to them have filled the cache of flags.
"""

import random
from fractions import Fraction
from itertools import chain, combinations
from operator import le

from tnnflag.extremal import (
    Generator, _ends_cell, _flag_perm, _lex_chain_cell, cell_support,
    generators,
)
from tnnflag.perms import (
    Perm, bruhat_pairs, identity, is_perm, longest_element,
    positive_distinguished_subexpression,
)
from tnnflag.wiring import (
    NegativeSegment, SweepProgram, VerticalEdge, WiringDiagram, _w_word,
    build_diagram,
)


def _build_diagram_frozen(v, w):
    if len(v) != len(w):
        raise ValueError("mismatched n")
    if not (is_perm(v) and is_perm(w)):
        name, u = ("w", w) if is_perm(v) else ("v", v)
        raise ValueError(f"{name} is not a permutation: {u!r}")
    n = len(v)
    keys, w_word = _w_word(w)
    try:
        v_pos = positive_distinguished_subexpression(v, w_word).positions
    except ValueError:
        raise ValueError("v is not <= w in Bruhat order") from None
    crossing = set(v_pos)
    strand = list(range(1, n + 1))
    edges, segments = [], []
    for j in range(len(keys), 0, -1):
        i, key = w_word.letters[j - 1], keys[j - 1]
        column = n + 1 - w_word.runs[j - 1]
        if j in crossing:
            segments.append(NegativeSegment(strand[i - 1], key - (i - 1),
                                            (column, column + 1)))
            strand[i - 1], strand[i] = strand[i], strand[i - 1]
        else:
            edges.append(VerticalEdge(j, key, column,
                                      strand[i - 1], strand[i]))
    edges.reverse()
    segments.reverse()
    return WiringDiagram(
        n=n, cell=(v, w), source_label=v,
        edges=tuple(edges), neg_segments=tuple(segments),
        w_word=w_word, v_positions=v_pos,
        sweep=_compile_sweep_frozen(v, edges),
    )


def _lex_table_frozen(n):
    return {sum(1 << (i - 1) for i in I): I for k in range(1, n)
            for I in combinations(range(1, n + 1), k)}


def _compile_sweep_frozen(v, edges):
    n = len(v)
    masks, S = [], 0
    for label in range(1, n):
        S |= 1 << v.index(label)
        masks.append(S)
    pos = {S: i for i, S in enumerate(masks)}
    steps = []
    for e in edges:
        lower, upper = 1 << (e.lower - 1), 1 << (e.upper - 1)
        moves, new = [], []
        for i in range(len(masks)):
            S = masks[i]
            if S & lower and not S & upper:
                T = S ^ lower ^ upper
                if T in pos:
                    moves.append((i, pos[T]))
                else:
                    pos[T] = len(masks)
                    masks.append(T)
                    new.append(i)
        steps.append((e.weight_id, tuple(moves), tuple(new)))
    table = _lex_table_frozen(n)
    lex = list(filter(pos.__contains__, table))
    sizes = list(map(int.bit_count, lex))
    return SweepProgram(tuple(steps), tuple(map(pos.__getitem__, lex)),
                        tuple(map(table.__getitem__, lex)),
                        (*map(sizes.index, range(1, n)), len(lex)))


def _greedy_prefixes_frozen(d, k):
    n = d.n
    if k == n:
        return [(tuple(range(1, n + 1)), ((),) * n)]
    holder = [0] * (n + 1)
    start, sinks = [], 0
    for r in range(n, 0, -1):
        s = d.source_label[r - 1]
        if s <= k:
            holder[r] = s
            start.append(r)
            sinks |= 1 << (r - 1)
    climbed = {holder[r]: [] for r in start}
    for e in d.edges:
        s = holder[e.lower]
        if s and not holder[e.upper]:
            holder[e.lower], holder[e.upper] = 0, s
            climbed[s].append(e)
    paths = dict.fromkeys(range(1, k + 1), ())
    table = _lex_table_frozen(n)
    found = [(table[sinks], tuple(paths.values()))]
    for r, (s, es) in zip(start, climbed.items()):
        if es:
            paths[s] = tuple(es)
            sinks ^= 1 << (r - 1) | 1 << (es[-1].upper - 1)
            found.append((table[sinks], tuple(paths.values())))
    return found


def _generators_frozen(v, w):
    d = _build_diagram_frozen(v, w)
    used, out = set(), []
    for k in range(len(v) - 1, 0, -1):
        for I, climbed in _greedy_prefixes_frozen(d, k):
            ids = tuple([e.weight_id for e in sum(climbed, ())])
            if used.issuperset(ids):
                new = None
            else:
                new = min(set(ids).difference(used))
                used.update(ids)
            out.append((I, ids, new, new is not None or not ids))
    return tuple(out)


def _lex_chain_cell_frozen(support, n):
    for k, block in enumerate(support, start=1):
        if not block:
            raise ValueError(f"no supported index of size {k}")
    mins, maxs = [b[0] for b in support], [b[-1] for b in support]
    full = (1 << n + 1) - 2

    def flag_to_perm(flag):
        perm = [n] * n
        seen = 0
        for k, I in enumerate(flag, start=1):
            mask = 0
            for i in I:
                mask |= 1 << i
            new = mask ^ seen
            if len(I) != k or mask & seen != seen or new & (new - 1) \
                    or not new & full:
                raise ValueError("Gale-extreme indices do not form a flag")
            perm[new.bit_length() - 2] = k
            seen = mask
        return Perm(tuple(perm))

    v, w = flag_to_perm(mins), flag_to_perm(maxs)
    if not all(map(le, chain.from_iterable(mins), chain.from_iterable(maxs))):
        raise ValueError("no cell: v is not <= w in Bruhat order")
    return v, w


def _cells():
    return ([c for n in (3, 4, 5) for c in bruhat_pairs(n)]
            + random.Random(40).sample(bruhat_pairs(6), 300)
            + [(identity(n), longest_element(n)) for n in (6, 7, 8)])


def test_build_diagram_matches_the_frozen_build():
    """Field for field, the sweep program included, with every record of
    its own type."""
    for v, w in _cells():
        got, want = build_diagram(v, w), _build_diagram_frozen(v, w)
        assert got == want, (v, w)
        assert type(got) is WiringDiagram and type(got.sweep) is SweepProgram
        assert all(type(e) is VerticalEdge for e in got.edges)
        assert all(type(s) is NegativeSegment for s in got.neg_segments)


def test_build_diagram_raises_as_the_frozen_build():
    for v, w in [((1, 2, 3), (1, 2)), ((1, 1, 2), (1, 2, 3)),
                 ((1, 2, 3), (2, 2, 3)), ((2, 1, 3), (1, 2, 3))]:
        assert _outcome(build_diagram, v, w) == \
            _outcome(_build_diagram_frozen, v, w), (v, w)


def test_generators_match_the_frozen_generators():
    for v, w in _cells():
        got, want = generators(v, w), _generators_frozen(v, w)
        assert list(got) == list(want), (v, w)
        assert all(type(g) is Generator for g in got), (v, w)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:        # the type and text are compared
        return type(exc), str(exc)


def _as_ints(support):
    """The support with every entry of its ends made an int."""
    return [[tuple(map(int, I)) if j in (0, len(b) - 1) else I
             for j, I in enumerate(b)] for b in support]


def _malformed(support, n, rng):
    """Each support edited at one size, as the docstring lists."""
    k = rng.randrange(n - 1)
    b = support[k]
    out = [support[:k] + [[]] + support[k + 1:],            # an empty block
           support[:k] + [[b[-1], b[0]]] + support[k + 1:],  # swapped ends
           [list(reversed(c)) for c in support]]            # no flag or v > w
    for edit in (float, Fraction, str, lambda i: i == 1 or i):  # True for 1
        for at in (0, -1):
            end = tuple(map(edit, b[at]))
            c = list(b)
            c[at] = end
            out.append(support[:k] + [c] + support[k + 1:])
    out.append([[tuple(map(float, I)) for I in c] for c in support])
    out.append([[list(c[0]), *c[1:]] for c in support])       # list ends
    return out


def test_lex_chain_cell_cold_warm_and_frozen_agree():
    rng = random.Random(41)
    kinds = set()
    for n in (3, 4, 5):
        for v, w in bruhat_pairs(n):
            sets = cell_support(v, w).sets
            support = [sorted(sets[k]) for k in range(1, n)]
            for s in [support, *_malformed(support, n, rng)]:
                want = _outcome(_lex_chain_cell_frozen, s, n)
                _ends_cell.cache_clear()
                _flag_perm.cache_clear()
                cold = _outcome(_lex_chain_cell, s, n)
                _outcome(_lex_chain_cell, _as_ints(s), n)
                _outcome(_lex_chain_cell, s, n)
                hits = _ends_cell.cache_info().hits
                warm = _outcome(_lex_chain_cell, s, n)
                # a cell's own ends are looked up, as a pair, then as flags
                assert s is not support \
                    or _ends_cell.cache_info().hits == hits + 1, (n, s)
                _ends_cell.cache_clear()    # the flags stay as the ends left them
                hits = _flag_perm.cache_info().hits
                flags = _outcome(_lex_chain_cell, s, n)
                assert s is not support \
                    or _flag_perm.cache_info().hits == hits + 2, (n, s)
                assert cold == warm == flags == want, (n, s)
                kinds.add(want[1] if type(want[0]) is type else "cell")
    assert _ends_cell.cache_info().maxsize == 64
    assert {"cell", "no supported index of size 1",
            "Gale-extreme indices do not form a flag",
            "no cell: v is not <= w in Bruhat order",
            "unsupported operand type(s) for <<: 'int' and 'float'",
            "unsupported operand type(s) for <<: 'int' and 'Fraction'",
            "unsupported operand type(s) for <<: 'int' and 'str'"} <= kinds, kinds
