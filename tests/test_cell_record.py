"""Differential tests of the one record per cell (``wiring.build_diagram``)
against frozen copies of the code it replaced.

The sweep program listed its indices in one flat tuple, with the bounds
of each size in it, and ``_run_sweep`` and ``_reached`` sliced that
tuple per call; the record holds one tuple per size, which
``_run_sweep`` and the walk hand out as they are. The inverse walk's
program had a cache of its own (``extremal._walk_program``), which
copied the size blocks and made each size's unit step anew; the record
holds the walk (``walk``), on the sweep's own tuples, with one unit step
per size shared by every cell of that n. The -1 segments were stored in
the record; now ``neg_segments`` makes them from w's word and v's
positions when read.

Each frozen copy must agree with the record, field for field, and
``s_vw`` with the frozen walk's indices, on every S3-S5 cell, 200 seeded
S6 and S7 cells and the S8 top cell.
"""

import random
from itertools import combinations

from tnnflag.extremal import s_vw
from tnnflag.perms import (
    all_perms, bruhat_leq, bruhat_pairs, identity, longest_element,
)
from tnnflag.wiring import (
    NegativeSegment, _greedy_prefixes, _run_sweep, _w_word, build_diagram,
)


def _cells():
    """Every S3-S5 cell, 100 seeded cells each of S6 and S7 (S7 by
    rejection: two seeded permutations, ordered when comparable), and the
    S8 top cell."""
    rng = random.Random(47)
    cells = [c for n in (3, 4, 5) for c in bruhat_pairs(n)]
    cells += rng.sample(bruhat_pairs(6), 100)
    perms = list(all_perms(7))
    drawn = set()
    while len(drawn) < 100:
        v, w = rng.sample(perms, 2)
        if bruhat_leq(w, v):
            v, w = w, v
        if bruhat_leq(v, w):
            drawn.add((v, w))
    return cells + sorted(drawn) + [(identity(8), longest_element(8))]


CELLS = _cells()


def _rank_table_frozen(n):
    table = {sum(1 << (i - 1) for i in I): I for k in range(1, n)
             for I in combinations(range(1, n + 1), k)}
    return table, {S: r for r, S in enumerate(table)}


def _compile_sweep_frozen(v, edges):
    """The sweep program with one flat tuple of indices: (steps, order,
    indices, bounds)."""
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
    table, rank = _rank_table_frozen(n)
    lex = sorted(pos, key=rank.__getitem__)
    sizes = list(map(int.bit_count, lex))
    return (tuple(steps), tuple(map(pos.__getitem__, lex)),
            tuple(map(table.__getitem__, lex)),
            (*map(sizes.index, range(1, n)), len(lex)))


def _reached_frozen(d):
    """Per size, the flat indices between that size's bounds."""
    _, _, indices, bounds = _compile_sweep_frozen(d.source_label, d.edges)
    return [indices[a:b] for a, b in zip(bounds, bounds[1:])]


def _walk_program_frozen(d):
    reached, walks = _reached_frozen(d), _greedy_prefixes(d)
    steps, extremal = [], []
    for k in range(d.n - 1, 0, -1):
        block, i, over = reached[k - 1], 0, ()
        steps.append((k, 0, None, ()))
        for I, _, climbed, new in walks[k - 1]:
            extremal.append(I)
            over += climbed
            if new is None:
                continue
            i = block.index(I, i)
            j = over.index(new)
            steps.append((k, i, new, over[:j] + over[j + 1:]))
            over = ()
    return tuple(reached), tuple(steps), tuple(extremal)


def _segments_frozen(v, w):
    """The -1 segments as the diagram's backward replay stored them."""
    n = len(v)
    keys, w_word = _w_word(w)
    crossing = set(build_diagram(v, w).v_positions)
    strand, segments = list(range(1, n + 1)), []
    for j in range(len(keys), 0, -1):
        i, key = w_word.letters[j - 1], keys[j - 1]
        column = n + 1 - w_word.runs[j - 1]
        if j in crossing:
            segments.append(NegativeSegment(strand[i - 1], key - (i - 1),
                                            (column, column + 1)))
            strand[i - 1], strand[i] = strand[i], strand[i - 1]
    segments.reverse()
    return tuple(segments)


def test_sweep_blocks_are_the_flat_indices_by_bounds():
    """The program's steps and order are the frozen ones, and each size's
    tuple the frozen flat indices between its bounds; a run of the sweep
    hands out those very tuples."""
    for v, w in CELLS:
        d = build_diagram(v, w)
        steps, order, _, _ = _compile_sweep_frozen(v, d.edges)
        assert d.sweep.steps == steps and d.sweep.order == order, (v, w)
        assert list(d.sweep.indices) == _reached_frozen(d), (v, w)
        found = _run_sweep(d, dict.fromkeys(d.weight_ids(), 1), False)
        assert all(I is J for (I, _), J in zip(found, d.sweep.indices)), (v, w)


def test_walk_is_the_frozen_walk_program():
    """All three fields, ``s_vw`` read off them, the size blocks and the
    extremal indices the sweep's own tuples, and each unit step one
    object per size for every cell of its n."""
    units = {}
    for v, w in CELLS:
        d = build_diagram(v, w)
        indices, steps, extremal = walk = d.walk
        want = _walk_program_frozen(d)
        assert walk == want, (v, w)
        assert s_vw(v, w) == [want[0][k - 1][i] for k, i, _, _ in want[1]]
        assert indices is d.sweep.indices, (v, w)
        for I in extremal:
            block = indices[len(I) - 1]
            assert block[block.index(I)] is I, (v, w, I)
        for step in steps:
            if step[2] is None:
                assert units.setdefault((len(v), step[0]), step) is step
    assert len(units) == sum(n - 1 for n in (3, 4, 5, 6, 7, 8))


def test_segments_on_demand_are_the_stored_segments():
    """Equal, of the record's own type, on every read."""
    for v, w in CELLS:
        d = build_diagram(v, w)
        assert d.neg_segments == _segments_frozen(v, w), (v, w)
        assert all(type(s) is NegativeSegment for s in d.neg_segments)
        assert d.neg_segments == d.neg_segments
