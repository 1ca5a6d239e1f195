"""Differential tests of the per-cell bookkeeping against frozen copies of
the bodies it replaced.

`build_diagram` makes its records with `tuple.__new__`, orders its
sweep's states by a per-n rank table, holds each size's indices in a
tuple of its own and makes the -1 segments when they are read; the
frozen copy below built them with the records' own constructors,
filtered every strand mask of `_lex_table`, listed the indices in one
flat tuple with the bounds of each size, and stored the segments. The
generators were read off each prefix's weight ids and the one source
that the walk adds; the frozen copy below summed every path of every
prefix. The diagram must give equal records of the same types, sweep
included (per size), and the walk program (the diagram's `walk`),
its extremal indices and `s_vw` must agree with the frozen generators, on
every S3-S5 cell, 300 seeded S6 cells and the S6-S8 top cells.

`_lex_chain_cell` reads the cell off the chain ends through one cache,
each flag's permutation (`extremal._flag_perm`). With that cache
cleared, and with it filled by the same ends, it must give the same
cell, or the same exception type and text, as the frozen uncached copy,
on the ends of every S3-S5 cell and on malformed ends: an empty block,
swapped ends, and every block reversed (no flag, or v not <= w).

A cached flag would answer for any end equal to it, so the cell read
takes ends of exact ints only, and the public entry points check the
rest. On every S3-S5 cell, after the cell's int support has filled the
cache of flags, ends with float, Fraction, str or bool entries (True for
1) and all-float supports make `identify_cell` raise its `bad index`
ValueError, and ends given as lists are sorted into the tuple support's
cell; `extremal_indices` gives the outcome, type and text it gives with
the frozen uncached cell read (a support's frozensets hold no lists).
"""

import random
from fractions import Fraction
from itertools import chain, combinations
from operator import le
from typing import NamedTuple

from tnnflag import extremal
from tnnflag.extremal import (
    SupportVector, _flag_perm, _lex_chain_cell, cell_support, extremal_indices,
)
from tnnflag.membership import identify_cell
from tnnflag.oracle import Generator
from tnnflag.perms import (
    Perm, bruhat_pairs, identity, is_perm, longest_element,
    positive_distinguished_subexpression,
)
from tnnflag.wiring import (
    NegativeSegment, SweepProgram, VerticalEdge, WiringDiagram, _w_word,
    build_diagram,
)

from walk_reference import assert_program_matches


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
    return _FrozenDiagram(
        n=n, cell=(v, w), source_label=v,
        edges=tuple(edges), neg_segments=tuple(segments),
        w_word=w_word, v_positions=v_pos,
        sweep=_compile_sweep_frozen(v, edges),
    )


class _FrozenDiagram(NamedTuple):
    """The diagram's fields when it stored its -1 segments and had no
    walk program."""
    n: int
    cell: tuple
    source_label: tuple
    edges: tuple
    neg_segments: tuple
    w_word: tuple
    v_positions: tuple
    sweep: tuple


class _FrozenSweep(NamedTuple):
    """The sweep program with one flat tuple of indices and the bounds of
    each size in it."""
    steps: tuple
    order: tuple
    indices: tuple
    bounds: tuple


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
    return _FrozenSweep(tuple(steps), tuple(map(pos.__getitem__, lex)),
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
    """Field for field, with every record of its own type: the -1
    segments, made when read, are the stored ones, and the sweep program
    has the same steps and order, and per size the frozen flat indices
    between that size's bounds."""
    for v, w in _cells():
        got, want = build_diagram(v, w), _build_diagram_frozen(v, w)
        assert (got.n, got.cell, got.source_label, got.edges, got.w_word,
                got.v_positions, got.neg_segments) == (
            want.n, want.cell, want.source_label, want.edges, want.w_word,
            want.v_positions, want.neg_segments), (v, w)
        steps, order, indices, bounds = want.sweep
        assert got.sweep == (steps, order, tuple(
            indices[a:b] for a, b in zip(bounds, bounds[1:]))), (v, w)
        assert type(got) is WiringDiagram and type(got.sweep) is SweepProgram
        assert all(type(e) is VerticalEdge for e in got.edges)
        assert all(type(s) is NegativeSegment for s in got.neg_segments)


def test_build_diagram_raises_as_the_frozen_build():
    for v, w in [((1, 2, 3), (1, 2)), ((1, 1, 2), (1, 2, 3)),
                 ((1, 2, 3), (2, 2, 3)), ((2, 1, 3), (1, 2, 3))]:
        assert _outcome(build_diagram, v, w) == \
            _outcome(_build_diagram_frozen, v, w), (v, w)


def test_generators_match_the_frozen_generators():
    """The walk program, its extremal indices and ``s_vw`` read the
    frozen generators."""
    for v, w in _cells():
        assert_program_matches(
            v, w, [Generator(*g) for g in _generators_frozen(v, w)])


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:        # the type and text are compared
        return type(exc), str(exc)


def _malformed(support, n, rng):
    """Each support edited at one size, as the docstring lists."""
    k = rng.randrange(n - 1)
    b = support[k]
    return [support[:k] + [[]] + support[k + 1:],            # an empty block
            support[:k] + [[b[-1], b[0]]] + support[k + 1:],  # swapped ends
            [list(reversed(c)) for c in support]]            # no flag or v > w


def _not_ints(support, n, rng):
    """Each support edited at one end, or at every index, with entries
    that are not ints, as the docstring lists: pairs of the support and
    its first basis with such an entry, or None when every entry is an
    int, as the bool edit of an end without 1 leaves it."""
    k = rng.randrange(n - 1)
    b = support[k]
    out = []
    for edit in (float, Fraction, str, lambda i: i == 1 or i):  # True for 1
        for at in (0, -1):
            end = tuple(map(edit, b[at]))
            c = list(b)
            c[at] = end
            bad = end if {*map(type, end)} != {int} else None
            out.append((support[:k] + [c] + support[k + 1:], bad))
    floats = [[tuple(map(float, I)) for I in c] for c in support]
    return out + [(floats, floats[0][0])]


def test_lex_chain_cell_cold_warm_and_frozen_agree():
    rng = random.Random(41)
    kinds = set()
    for n in (3, 4, 5):
        for v, w in bruhat_pairs(n):
            sets = cell_support(v, w).sets
            support = [sorted(sets[k]) for k in range(1, n)]
            for s in [support, *_malformed(support, n, rng)]:
                want = _outcome(_lex_chain_cell_frozen, s, n)
                _flag_perm.cache_clear()
                cold = _outcome(_lex_chain_cell, s, n)
                hits = _flag_perm.cache_info().hits
                warm = _outcome(_lex_chain_cell, s, n)
                # a cell's own ends are two flags, each looked up
                assert s is not support \
                    or _flag_perm.cache_info().hits == hits + 2, (n, s)
                assert cold == warm == want, (n, s)
                kinds.add(want[1] if type(want[0]) is type else "cell")
    assert {"cell", "no supported index of size 1",
            "Gale-extreme indices do not form a flag",
            "no cell: v is not <= w in Bruhat order"} <= kinds, kinds


def _extremal_outcome(support, n, cell_read):
    """``extremal_indices`` on the support as a ``SupportVector``, with
    ``cell_read`` as its cell read: its repr, which tells 1 from True,
    or its exception's type and text."""
    saved, extremal._lex_chain_cell = extremal._lex_chain_cell, cell_read
    try:
        got = _outcome(extremal_indices, SupportVector(
            n, {k: frozenset(b) for k, b in enumerate(support, start=1)}))
    finally:
        extremal._lex_chain_cell = saved
    return got if type(got) is tuple else repr(got)


def test_entry_points_check_ends_that_are_not_ints():
    rng = random.Random(41)
    kinds = set()
    for n in (3, 4, 5):
        for v, w in bruhat_pairs(n):
            sets = cell_support(v, w).sets
            support = [sorted(sets[k]) for k in range(1, n)]
            cell = (v, w)
            # the int support fills the cache of flags with the cell's ends
            assert identify_cell(dict(enumerate(support, start=1)), n) == cell
            for s, bad in _not_ints(support, n, rng):
                got = _outcome(identify_cell, dict(enumerate(s, start=1)), n)
                if bad is None:         # every entry an int, as the support's
                    assert got == cell, (n, s)
                    continue
                assert got == (ValueError, f"bad index {bad!r} for n={n}"), (n, s)
                want = _extremal_outcome(s, n, _lex_chain_cell_frozen)
                assert _extremal_outcome(s, n, _lex_chain_cell) == want, (n, s)
                kinds.add(want[1] if type(want) is tuple else "chains")
            lists = {k: [list(b[0]), *b[1:]]
                     for k, b in enumerate(support, start=1)}
            assert identify_cell(lists, n) == cell
    assert {"chains",
            "unsupported operand type(s) for <<: 'int' and 'float'",
            "unsupported operand type(s) for <<: 'int' and 'Fraction'",
            "unsupported operand type(s) for <<: 'int' and 'str'"} <= kinds, kinds
