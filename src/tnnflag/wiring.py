"""
Planar wiring diagrams for Bruhat pairs v <= w: n horizontal strands,
weighted vertical edges, and -1 diagonal segments, which the ``cell``
command prints and, of the oracle, only a collection's signed weight
(``oracle.collection_weight``) reads; the sweep behind ``phi`` and
``trop_phi``, compiled once per diagram into a program on the strand
sets the paths can occupy (``SweepProgram``), and the kernel that runs
it; and the left-greedy paths that give the extremal indices, built in
one walk over the edges in key order (``_greedy_prefixes``), which the
inverse walk's program (``extremal._walk_program``) alone reads in the
library.
The path records (``oracle.Path``, ``oracle.PathCollection``), listing
every non-intersecting path collection and a collection's signed weight,
which only check what this module computes, are the oracle's; the
path-sum matrix is the tests' (``tests/oracle_reference.py``).

Geometry conventions: strand r is the r-th from the bottom; sinks are the
right ends of the strands (sink r on strand r); sources are primed labels
attached to the left ends, bottom to top. Every object carries an
integer x-key, the position of a letter in the canonical longest word (so
larger keys are further right): a vertical edge has the key of its own
letter, and a -1 diagonal segment the key of the first letter of its
crossing's run, just left of which it sits.

>>> from tnnflag.perms import perm_from_str
>>> d = build_diagram(perm_from_str("1324"), perm_from_str("4213"))
>>> d.source_label
(1, 3, 2, 4)
>>> [(e.weight_id, e.lower, e.upper) for e in d.edges]
[(1, 1, 3), (2, 2, 4), (4, 1, 2)]
"""

__all__ = [
    "VerticalEdge", "NegativeSegment", "WiringDiagram", "build_diagram",
]

import math
from functools import lru_cache
from itertools import combinations
from typing import Mapping, NamedTuple

from .perms import (
    Perm, Word, canonical_w0_word, is_perm, positive_distinguished_subexpression,
)

_new_record = tuple.__new__     # a NamedTuple record from its fields in order


class VerticalEdge(NamedTuple):
    weight_id: int          # position of the letter within w's reduced word
    key: int                # position of the letter within the canonical word
    column: int             # n + 1 - run
    lower: int              # strand at the bottom end, after later crossings
    upper: int              # strand at the top end; always lower < upper


class NegativeSegment(NamedTuple):
    strand: int
    key: int                # the first letter of its run, just left of which it sits
    columns: tuple[int, int]  # the two columns the segment sits between


class SweepProgram(NamedTuple):
    """The sweep behind ``phi`` and ``trop_phi`` compiled for one diagram
    (``_compile_sweep``) and run by ``_run_sweep``. The states are the
    strand masks (bit r-1 for strand r) that the paths from {1'..k'},
    k < n, can occupy, numbered as first reached: {1'..k'} at k-1, then
    each new one as a move reaches it. One step per edge in key order, on
    those positions: (the edge's weight_id, its moves into reached states
    as (source, destination) pairs, the sources of its moves that reach
    new states in the order those are numbered). Then the states in
    (size, lexicographic index) order, the order in which ``_run_sweep``
    reads them: their positions, their indices, and where each size
    1..n-1 starts in that order, then their number."""
    steps: tuple[tuple, ...]
    order: tuple[int, ...]
    indices: tuple[tuple[int, ...], ...]
    bounds: tuple[int, ...]


class WiringDiagram(NamedTuple):
    n: int
    cell: tuple[Perm, Perm]
    source_label: tuple[int, ...]   # strand r (bottom = 1) -> primed label: v
    edges: tuple[VerticalEdge, ...]
    neg_segments: tuple[NegativeSegment, ...]
    w_word: Word                    # the PDS of w inside the canonical word
    v_positions: tuple[int, ...]    # positions of v's PDS inside w_word
    sweep: SweepProgram             # compiled once, by ``_compile_sweep``

    def weight_ids(self) -> tuple[int, ...]:
        return tuple(sorted(e.weight_id for e in self.edges))

    def strand_of_label(self, label: int) -> int:
        return self.source_label.index(label) + 1


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

# Cells held by each per-cell cache (``build_diagram`` and
# ``extremal._walk_program``): every cell of S3-S5 (4013 of them) fits.
# ``_w_word`` keeps as many w, and ``extremal._flag_perm`` as many flags.
_CELL_CACHE_SIZE = 4096


@lru_cache(maxsize=_CELL_CACHE_SIZE)
def _w_word(w: Perm) -> tuple[tuple[int, ...], Word]:
    """The distinguished subexpression of w in the canonical word: its
    positions there, which are its letters' keys, and the run-annotated
    word it spells. Every cell v <= w of one w shares it."""
    w_sub = positive_distinguished_subexpression(w, canonical_w0_word(len(w)))
    return w_sub.positions, Word(len(w), w_sub.letters(), w_sub.runs())


@lru_cache(maxsize=_CELL_CACHE_SIZE)
def build_diagram(v: Perm, w: Perm) -> WiringDiagram:
    """Replay the distinguished subexpressions of w (in the canonical word)
    and of v (in w's word) once, from the right: ``strand[s - 1]`` is the
    strand that whatever sits on strand s ends up on after the crossings
    still to come. A weight letter adds its vertical edge between the
    strands its two ends end up on; a crossing letter leaves a -1 segment
    at the start of its run and then swaps its two strands' destinations.
    The sources read v bottom to top, and every edge goes up: both follow
    from the distinguished-subexpression construction (Marsh-Rietsch), so
    they are not re-derived here. The tests check both, and ``verify``
    that every edge goes up. Bruhat order is checked by v's subexpression
    itself: v has one in w's reduced word exactly when v <= w, so its
    absence raises the ValueError that names the order. Before that,
    unequal lengths and a v or w that is not a permutation of 1..n raise
    their own ValueError.
    """
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
    edges: list[VerticalEdge] = []
    segments: list[NegativeSegment] = []
    for j in range(len(keys), 0, -1):
        i, key = w_word.letters[j - 1], keys[j - 1]
        column = n + 1 - w_word.runs[j - 1]
        if j in crossing:
            segments.append(_new_record(NegativeSegment, (
                strand[i - 1], key - (i - 1), (column, column + 1))))
            strand[i - 1], strand[i] = strand[i], strand[i - 1]
        else:
            edges.append(_new_record(VerticalEdge, (
                j, key, column, strand[i - 1], strand[i])))
    edges.reverse()
    segments.reverse()
    return _new_record(WiringDiagram, (
        n, (v, w), v, tuple(edges), tuple(segments), w_word, v_pos,
        _compile_sweep(v, edges)))


def _compile_sweep(v: Perm, edges: list) -> SweepProgram:
    """The sweep's program for the diagram whose sources read v, with its
    edges in key order. An edge moves the paths on the states that hold
    its lower strand but not its upper one, each to the state with the
    upper strand in place of the lower, so the moves at one edge have
    distinct sources and destinations and none is both. The -1 segments
    play no part: every collection into a size k has the same
    Lindstroem-Gessel-Viennot sign (Marsh-Rietsch), so the program only
    adds. The start states {1'..k'} are built one source at a time, and
    each edge scans the states reached before it by position, with no
    copy."""
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
        for i in range(len(masks)):     # the states reached before the edge
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
    table, rank = _lex_table(n)
    lex = sorted(pos, key=rank.__getitem__)         # the reached masks by rank
    sizes = list(map(int.bit_count, lex))
    return _new_record(SweepProgram, (
        tuple(steps), tuple(map(pos.__getitem__, lex)),
        tuple(map(table.__getitem__, lex)),
        (*map(sizes.index, range(1, n)), len(lex))))


@lru_cache(maxsize=16)
def _lex_table(n: int) -> tuple[dict[int, tuple[int, ...]], dict[int, int]]:
    """Every index of size 1..n-1 over {1..n} by its strand mask (bit i-1
    for i), listed by rank: by size, then lexicographically; and each
    mask's rank. Read only. They hold 2^n - 2 entries each, so the cache
    keeps the 16 latest n."""
    table = {sum(1 << (i - 1) for i in I): I for k in range(1, n)
             for I in combinations(range(1, n + 1), k)}
    return table, {S: r for r, S in enumerate(table)}


def _run_sweep(d: WiringDiagram, x: Mapping[int, tuple[int, int] | int],
               signed: bool) -> list[tuple[tuple, list]]:
    """Run the diagram's program on the weights ``x``: classically, on
    the pair (p, q) of ints of each weight p/q in lowest terms, as
    ``phi`` and the reconstruction hand them over, the sums of products;
    tropically, on ints, the least sums (``plucker._sweep`` says what
    they mean). It keeps one int per state reached so far, in a list by
    position, and at the end reads that list once, in the program's
    index order: per size 1..n-1, the indices of the states reached, in
    lexicographic order, and their values. At positive weights
    (classically) every reached state is positive, so these are the
    supported indices.

    Classically the values are kept end-scaled: with A_S the sum of
    products over the partial collections on S so far, each scaled by
    the denominators q of the edges passed, the list holds B_S = A_S
    times the q of every edge still to come. So every state starts at Q,
    the product of all the edges' q, and after the last edge B_S = A_S,
    the same ints as a sweep that multiplies the states reached by each
    edge's q. An edge of weight p/q leaves the states that do not move
    as they are, adds p (B_i // q) to the destination of each move from
    i, and appends p (B_i // q) for a new state. The division is exact,
    since B_i still holds this edge's q; at q = 1 there is none. No state
    is both a source and a destination at one edge, so the moves read
    the states as they were before it and the list is updated in place.
    Tropically a new state is its source plus the weight, and a reached
    one keeps the lesser of its own value and that sum. A weight id
    missing from ``x`` raises KeyError."""
    steps, order, indices, bounds = d.sweep
    if signed:
        Q = math.prod([x[e.weight_id][1] for e in d.edges])
        value = [Q] * (d.n - 1)
        for wid, moves, new in steps:
            p, q = x[wid]
            if q == 1:
                for i, j in moves:
                    value[j] += p * value[i]
                for i in new:
                    value.append(p * value[i])
                continue
            for i, j in moves:
                value[j] += value[i] // q * p
            for i in new:
                value.append(value[i] // q * p)
    else:
        value = [0] * (d.n - 1)
        for wid, moves, new in steps:
            c = x[wid]
            for i, j in moves:
                t = value[i] + c
                if t < value[j]:
                    value[j] = t
            for i in new:
                value.append(value[i] + c)
    value = list(map(value.__getitem__, order))
    return [(indices[a:b], value[a:b]) for a, b in zip(bounds, bounds[1:])]


def _reached(d: WiringDiagram) -> list[tuple]:
    """Per size 1..n-1, the indices of the states that the diagram's sweep
    reaches, in lexicographic order."""
    _, _, indices, bounds = d.sweep
    return [indices[a:b] for a, b in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# Greedy / extremal collections
# ---------------------------------------------------------------------------

def _greedy_prefixes(d: WiringDiagram) -> list[list]:
    """Per size k = 1..n, a list: for each i, the topmost i of the
    sources 1'..k' take every left turn (upward edge) they can without
    meeting another path, the rest stay diagonal; per distinct sink set
    I, in lexicographic order of I as a sorted tuple, (I, s, ids, new):
    the label s of the one source whose climbed path the set adds, the
    weight ids of the edges it climbs, in key order, and its fresh id.
    The first set, where every path is diagonal, adds none,
    (I, 0, (), None); each later set keeps the paths of those before it.
    Paths turn around those above them only, so one walk in key order
    places all: the path on an edge's lower strand climbs it exactly
    when no path holds the upper one. Edge keys are distinct, so
    wherever the sequential greedy (paths added top-down, each turning
    around those placed) succeeds, this is its collection. A path that
    climbs moves one sink r up to a strand u > r: a new sink set, whose
    tuple is read off ``_lex_table`` by its strand mask (the shared
    tuple, not a new one). Its sorted tuple keeps the elements below r
    and then has one above r where r stood, so it is lexicographically
    greater: the sets come in lexicographic order, with no sort. The
    sizes are walked from n-1 down, size k-1's sources being size k's
    less k', so the walks share their set-up and meet the sets in the
    traversal order of the extremal indices, the order in which
    ``extremal._walk_program``, this walk's one reader in the library,
    lists them. That order gives the fresh-id rule: a set's fresh id is
    the least id of its path that no set met before it climbs, or None.
    At k = n the one sink set is every strand, reached by no climb. The
    oracle builds the same sets, ids and fresh ids another way
    (``oracle.generators``: the Xi chains, each index's one path
    collection listed by brute force, and set difference), which
    ``verify`` and the tests compare."""
    n, labels = d.n, d.source_label
    table = _lex_table(n)[0]
    placed = [0, *labels]       # strand -> the source label on it, or 0
    r = labels.index(n) + 1
    placed[r] = 0
    start = (1 << n) - 1 ^ 1 << (r - 1)     # the strand mask of the sources 1'..k'
    out = [None] * (n - 1) + [[(tuple(range(1, n + 1)), 0, (), None)]]
    used = set()                # the ids climbed by the sets met so far
    for k in range(n - 1, 0, -1):
        holder = placed.copy()
        climbed, end = {}, {}   # by source label: the ids climbed, the sink
        for wid, _, _, lo, up in d.edges:
            s = holder[lo]
            if s and not holder[up]:
                holder[lo], holder[up] = 0, s
                end[s] = up
                climbed.setdefault(s, []).append(wid)
        sinks = start
        found = out[k - 1] = [(table[sinks], 0, (), None)]
        for r in range(n, 0, -1) if climbed else ():    # the sources top-down
            s = placed[r]
            if s in climbed:
                ids = climbed[s]
                sinks ^= 1 << (r - 1) | 1 << (end[s] - 1)
                for new in ids:         # ascending, as the edges' ids are
                    if new not in used:
                        break
                else:
                    new = None
                used.update(ids)
                found.append((table[sinks], s, tuple(ids), new))
        r = labels.index(k) + 1
        placed[r] = 0
        start ^= 1 << (r - 1)
    return out


if __name__ == "__main__":
    import doctest
    doctest.testmod()
