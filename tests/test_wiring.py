import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tnnflag.perms import (
    Word, all_perms, bruhat_leq, bruhat_pairs, canonical_w0_word, identity,
    longest_element, positive_distinguished_subexpression,
)
from tnnflag.oracle import (
    Path, PathCollection, _paths_from, collection_weight,
    enumerate_path_collections, graph_extremal_collections, mr_matrix,
)
from tnnflag.plucker import phi
from tnnflag.wiring import VerticalEdge, build_diagram

from oracle_reference import path_sum_matrix
import walk_reference

EX_V, EX_W = (1, 3, 2, 4), (4, 2, 1, 3)


def _cells(n):
    ps = list(all_perms(n))
    return [(v, w) for v in ps for w in ps if bruhat_leq(v, w)]


def _random_weights(d, rng):
    return {j: Fraction(rng.randint(1, 9), rng.randint(1, 5))
            for j in d.weight_ids()}


def test_example_cell_diagram():
    d = build_diagram(EX_V, EX_W)
    assert d.source_label == (1, 3, 2, 4)
    assert d.weight_ids() == (1, 2, 4)
    # the crossing letter reroutes the first edge's upper endpoint
    assert [(e.weight_id, e.lower, e.upper) for e in d.edges] == \
        [(1, 1, 3), (2, 2, 4), (4, 1, 2)]
    assert len(d.neg_segments) == 1
    assert d.neg_segments[0].strand == 2


def _forward_replay(v, w):
    """``build_diagram`` as it was before the backward pass: replay the
    words left to right, and at each crossing swap the labels, rewrite the
    endpoints of every edge placed so far and move every -1 segment on the
    two strands, which sit at half-integral keys. Returns the source
    labels, edges, w's word, v's positions, the segments as (strand, key,
    columns) and the sweep events, whose masks come from a replay of the
    strand sets the paths from 1'..k' can occupy."""
    n = len(v)
    w_sub = positive_distinguished_subexpression(w, canonical_w0_word(n))
    w_word = Word(n, w_sub.letters(), w_sub.runs())
    v_pos = set(positive_distinguished_subexpression(v, w_word).positions)
    starts = {r: 1 + sum(n - q for q in range(1, r)) for r in range(1, n)}
    labels = list(range(1, n + 1))
    edges, segments = [], []
    for j, (i, r) in enumerate(zip(w_word.letters, w_word.runs), start=1):
        column = n + 1 - r
        if j not in v_pos:
            edges.append({"weight_id": j, "key": w_sub.positions[j - 1],
                          "column": column, "lower": i, "upper": i + 1})
            continue
        labels[i - 1], labels[i] = labels[i], labels[i - 1]
        for e in edges:
            for end in ("lower", "upper"):
                if e[end] in (i, i + 1):
                    e[end] = 2 * i + 1 - e[end]
        segments = [(2 * i + 1 - s if s in (i, i + 1) else s, key, cols)
                    for s, key, cols in segments]
        segments.append((i, Fraction(starts[r]) - Fraction(1, 2),
                         (column, column + 1)))
    edges = tuple(VerticalEdge(**e) for e in edges)
    # the occupied strand sets reachable from the sources 1'..k', k < n
    reach = {frozenset(labels.index(lb) + 1 for lb in range(1, k + 1))
             for k in range(1, n)}

    def masks(sets):
        return tuple(sorted(sum(1 << (r - 1) for r in S) for S in sets))

    events = []
    for ev in sorted(edges, key=lambda ev: ev.key):
        sources = [S for S in reach if ev.lower in S and ev.upper not in S]
        reach |= {S - {ev.lower} | {ev.upper} for S in sources}
        events.append((ev.weight_id, 1 << (ev.lower - 1) | 1 << (ev.upper - 1),
                       masks(sources)))
    return (tuple(labels), edges, w_word, tuple(sorted(v_pos)),
            segments, tuple(events))


def _decoded_program(d):
    """The diagram's sweep program read back through its index order, in
    the replay's terms: per step, (weight_id, the edge's moves as (source
    mask, destination mask)). The index order lists every position once,
    by size and then lexicographically, each size's indices in a tuple of
    their own; the sources 1'..k' hold the first positions, every
    position read is one reached before the step, and each new state
    takes the next position."""
    _, order, indices = d.sweep
    assert sorted(order) == list(range(len(order)))
    assert len(indices) == d.n - 1 and all(
        type(block) is tuple and block and {*map(len, block)} == {k}
        for k, block in enumerate(indices, start=1))
    flat = [I for block in indices for I in block]
    assert flat == sorted(set(flat), key=lambda I: (len(I), I))
    masks = [0] * len(order)
    for i, I in zip(order, flat):
        masks[i] = sum(1 << (r - 1) for r in I)
    assert list(masks[:d.n - 1]) == [
        sum(1 << (d.strand_of_label(lb) - 1) for lb in range(1, k + 1))
        for k in range(1, d.n)]
    reached, out = d.n - 1, []
    for wid, moves, new in d.sweep.steps:
        assert all(i < reached and j < reached for i, j in moves)
        decoded = {(masks[i], masks[j]) for i, j in moves}
        for i in new:
            assert i < reached
            decoded.add((masks[i], masks[reached]))
            reached += 1
        out.append((wid, decoded))
    assert reached == len(masks)
    return out


def _replayed_moves(events):
    """The replay's edge events in the terms of ``_decoded_program``."""
    return [(wid, {(S, S ^ move) for S in sources})
            for wid, move, sources in events]


def test_backward_pass_matches_forward_replay():
    """Every cell of S2-S5 and 200 seeded S6 cells: the same diagram as the
    forward replay, each -1 segment one half further right, at the key of
    the first letter of its run; the sources read v bottom to top, and
    every edge goes up. The compiled sweep program, decoded through its
    index order, makes the replay's moves, one step per edge."""
    cells = [c for n in range(2, 6) for c in bruhat_pairs(n)]
    cells += random.Random(15).sample(bruhat_pairs(6), 200)
    for v, w in cells:
        d = build_diagram(v, w)
        labels, edges, w_word, v_positions, segments, events = \
            _forward_replay(v, w)
        assert (d.source_label, d.edges, d.w_word, d.v_positions) == \
            (labels, edges, w_word, v_positions), (v, w)
        assert _decoded_program(d) == _replayed_moves(events), (v, w)
        # the replay's own labels, which build_diagram takes as given
        assert labels == v, (v, w)
        assert all(e.lower < e.upper for e in d.edges), (v, w)
        assert [(s.strand, s.columns) for s in d.neg_segments] == \
            [(strand, cols) for strand, _, cols in segments], (v, w)
        assert [s.key for s in d.neg_segments] == \
            [key + Fraction(1, 2) for _, key, _ in segments], (v, w)
        assert all(type(s.key) is int for s in d.neg_segments), (v, w)


def test_example_cell_path_sums():
    d = build_diagram(EX_V, EX_W)
    a = {1: Fraction(2), 2: Fraction(3), 4: Fraction(5)}
    assert path_sum_matrix(d, a) == [
        [Fraction(1), Fraction(5), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(-1), Fraction(0), Fraction(3)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_identity_cell_is_bare():
    d = build_diagram(identity(3), identity(3))
    assert d.edges == () and d.neg_segments == ()
    assert d.source_label == (1, 2, 3)


def test_rejects_non_bruhat_pair():
    with pytest.raises(ValueError):
        build_diagram((2, 1, 3), (1, 3, 2))


def test_bruhat_rejection_comes_from_v_subexpression():
    """``build_diagram`` checks v <= w by v's distinguished subexpression in
    w's word alone: on every ordered pair of S2-S5, uncached, it raises
    the Bruhat-order ValueError exactly when the tableau criterion says
    v is not <= w, and builds the diagram otherwise. Permutations of
    unequal lengths raise the length error."""
    build = build_diagram.__wrapped__
    for n in range(2, 6):
        for v, w in itertools.product(all_perms(n), repeat=2):
            if bruhat_leq(v, w):
                assert build(v, w).cell == (v, w)
                continue
            with pytest.raises(ValueError) as err:
                build(v, w)
            assert str(err.value) == "v is not <= w in Bruhat order", (v, w)
    for v, w in [((1, 2), (1, 2, 3)), ((2, 1, 3), (2, 1)),
                 ((1, 2, 3, 4), (3, 2, 1))]:
        with pytest.raises(ValueError, match="^mismatched n$"):
            build(v, w)


@pytest.mark.parametrize("v, w, name", [
    ((0, 1, 2), (3, 2, 1), "v"), ((1, 1, 3), (1, 2, 3), "v"),
    ((2, 1, 3), (3, 1, 1), "w"), ((1, 2, 3), (1, 2, 4), "w"),
])
def test_non_permutations_are_rejected(v, w, name):
    """``build_diagram``, and ``phi`` through it, name the argument that is
    not a permutation of 1..n (v first), after the length check."""
    message = f"^{name} is not a permutation: "
    with pytest.raises(ValueError, match=message):
        build_diagram(v, w)
    with pytest.raises(ValueError, match=message):
        phi(v, w, {1: 1})
    with pytest.raises(ValueError, match="^mismatched n$"):
        build_diagram(v, w + (4,))


def test_negative_segments_follow_later_crossings():
    """A crossing below an earlier one carries its -1 section along, so the
    path sums of a crossings-only cell stay a nonnegative matrix."""
    d = build_diagram((3, 1, 2), (3, 1, 2))
    assert sorted(s.strand for s in d.neg_segments) == [1, 1]
    m = path_sum_matrix(d, {})
    assert all(x >= 0 for row in m for x in row)


@pytest.mark.parametrize("n", [3, 4])
def test_path_sums_equal_cell_matrix_everywhere(n):
    rng = random.Random(5)
    for v, w in _cells(n):
        d = build_diagram(v, w)
        a = _random_weights(d, rng)
        assert path_sum_matrix(d, a) == mr_matrix(v, w, a), (v, w)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_collections_are_disjoint_and_complete(data):
    cells = _cells(4)
    v, w = cells[data.draw(st.integers(0, len(cells) - 1))]
    d = build_diagram(v, w)
    k = data.draw(st.integers(1, 3))
    sinks = tuple(data.draw(st.permutations(list(range(1, 5))))[:k])
    for coll in enumerate_path_collections(d, range(1, k + 1), sinks):
        assert coll.sinks == frozenset(sinks)
        seen = []
        for p in coll.paths:
            for iv in p.intervals():
                for jv in seen:
                    if iv[0] == jv[0]:
                        # closed intervals on a shared strand cannot touch
                        assert (jv[2] is not None and iv[1] > jv[2]) or \
                               (iv[2] is not None and jv[1] > iv[2])
                seen.append(iv)


def _enumerate_rebuilding_intervals(d, sources, sinks):
    """``enumerate_path_collections`` as it was before each candidate path
    carried its intervals: ``Path.intervals()`` rebuilt at every step."""
    src = sorted(sources)
    snk = frozenset(sinks)
    per_source = []
    for s in src:
        strand = d.strand_of_label(s)
        per_source.append([Path(s, strand, es)
                           for es in _paths_from(d, strand, Fraction(0))
                           if (es[-1].upper if es else strand) in snk])
    out = []

    def overlap(a, b):
        s1, lo1, hi1 = a
        s2, lo2, hi2 = b
        return s1 == s2 and (hi2 is None or lo1 <= hi2) and \
            (hi1 is None or lo2 <= hi1)

    def backtrack(idx, chosen, used_sinks, occupied):
        if idx == len(src):
            out.append(PathCollection(tuple(chosen)))
            return
        for p in per_source[idx]:
            if p.sink in used_sinks or any(overlap(iv, jv)
                                           for iv in p.intervals()
                                           for jv in occupied):
                continue
            backtrack(idx + 1, chosen + [p], used_sinks | {p.sink},
                      occupied + list(p.intervals()))

    backtrack(0, [], set(), [])
    out.sort(key=lambda c: tuple(p.sink for p in c.paths))
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_enumeration_matches_interval_rebuilding_reference(n):
    """Same collections in the same order for every equal-size (sources,
    sinks) pair of every cell."""
    nonempty = 0
    for v, w in _cells(n):
        d = build_diagram(v, w)
        for k in range(n + 1):
            for sources in itertools.combinations(range(1, n + 1), k):
                for sinks in itertools.combinations(range(1, n + 1), k):
                    got = enumerate_path_collections(d, sources, sinks)
                    assert got == _enumerate_rebuilding_intervals(
                        d, sources, sinks), (v, w, sources, sinks)
                    nonempty += bool(got)
    assert nonempty


def test_left_greedy_top_cell():
    """The last extremal collection of size 3, all three paths placed."""
    n = 5
    d = build_diagram(identity(n), longest_element(n))
    coll = graph_extremal_collections(d, 3)[-1]
    assert coll.sinks == frozenset({3, 4, 5})
    mono = collection_weight(coll, d)
    assert mono.coefficient == 1
    assert all(e == 1 for e in mono.exponents.values())


def test_graph_extremal_collections_top_cell():
    d = build_diagram(identity(5), longest_element(5))
    colls = graph_extremal_collections(d, 3)
    assert [tuple(sorted(c.sinks)) for c in colls] == \
        [(1, 2, 3), (1, 2, 5), (1, 4, 5), (3, 4, 5)]


def test_extremal_collection_weights_are_squarefree_monomials():
    for v, w in _cells(3):
        d = build_diagram(v, w)
        for k in (1, 2):
            for coll in graph_extremal_collections(d, k):
                mono = collection_weight(coll, d)
                assert mono.coefficient == 1, (v, w, coll.sinks)
                assert all(e == 1 for e in mono.exponents.values())


def test_diagonal_path_weight_is_one():
    d = build_diagram(EX_V, EX_W)
    p = Path(1, d.strand_of_label(1), ())
    mono = collection_weight(PathCollection((p,)), d)
    assert mono.coefficient == 1 and mono.exponents == {}


# The sequential greedy that the one greedy walk (the walk reference's
# ``graph_extremal_collections`` wraps it) replaces: paths are placed top-down by strand, each on closed occupancy
# intervals, taking the first upward edge before the next path already
# placed on its strand whose landing point is free. It gives up (None)
# where a path is boxed in or starts on an occupied point.

def _sequential_greedy_path(d, source, occupied):
    strand = d.strand_of_label(source)
    key = Fraction(0)
    taken = []
    if any(s == strand and lo <= key and (hi is None or key <= hi)
           for s, lo, hi in occupied):
        return None
    while True:
        block = min((lo for s, lo, hi in occupied if s == strand and lo > key),
                    default=None)
        for e in sorted(d.edges, key=lambda e: e.key):
            if e.lower != strand or e.key <= key:
                continue
            if block is not None and e.key >= block:
                break
            if any(s == e.upper and lo <= e.key and (hi is None or e.key <= hi)
                   for s, lo, hi in occupied):
                continue
            taken.append(e)
            strand, key = e.upper, Fraction(e.key)
            break
        else:
            if block is not None:
                return None
            return Path(source, d.strand_of_label(source), tuple(taken))


def _sequential_greedy(d, sources):
    occupied, paths = [], []
    for s in sorted(sources, key=d.strand_of_label, reverse=True):
        p = _sequential_greedy_path(d, s, occupied)
        if p is None:
            return None
        paths.append(p)
        occupied.extend(p.intervals())
    return PathCollection(tuple(sorted(paths, key=lambda p: p.source)))


def _sequential_extremal_collections(d, k):
    top_down = sorted(range(1, k + 1), key=d.strand_of_label, reverse=True)
    seen = {}
    for i in range(k + 1):
        greedy = _sequential_greedy(d, top_down[:i])
        diag = [Path(s, d.strand_of_label(s), ()) for s in top_down[i:]]
        paths = sorted(list(greedy.paths) + diag, key=lambda p: p.source)
        coll = PathCollection(tuple(paths))
        seen.setdefault(coll.sinks, coll)
    return [seen[s] for s in sorted(seen, key=lambda s: tuple(sorted(s)))]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_edges_are_in_strictly_increasing_key_order(n):
    for v, w in _cells(n):
        keys = [e.key for e in build_diagram(v, w).edges]
        assert all(a < b for a, b in zip(keys, keys[1:])), (v, w)


@pytest.mark.parametrize("n", [3, 4])
def test_left_greedy_walk_matches_sequential_greedy(n):
    """Every cell and every k in 1..n, k = n included: the one walk's last
    collection, where all k sources are placed, is the sequential greedy's
    whenever that places them all, and every prefix's collection is its
    prefix's."""
    compared = 0
    for v, w in _cells(n):
        d = build_diagram(v, w)
        for k in range(1, n + 1):
            colls = walk_reference.graph_extremal_collections(d, k)
            assert colls == _sequential_extremal_collections(d, k), (v, w, k)
            expected = _sequential_greedy(d, range(1, k + 1))
            if expected is not None:
                assert colls[-1] == expected, (v, w, k)
                compared += 1
    assert compared


def test_graph_extremal_collections_match_sequential_greedy():
    """The oracle's collections, listed by brute force along the Xi
    chains, against a sequential greedy per prefix, on every S3/S4 cell,
    60 seeded S5 cells and the S6/S7 top cells."""
    cells = _cells(3) + _cells(4) + random.Random(8).sample(_cells(5), 60) + [
        (identity(6), longest_element(6)), (identity(7), longest_element(7))]
    for v, w in cells:
        d = build_diagram(v, w)
        for k in range(1, len(v)):
            assert graph_extremal_collections(d, k) == \
                _sequential_extremal_collections(d, k), (v, w, k)
