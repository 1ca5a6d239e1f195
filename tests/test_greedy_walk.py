"""The one greedy walk (``wiring._greedy_prefixes``), from which the
inverse walk that ``membership._solve`` runs is compiled
(``extremal._walk_program``), against frozen copies of the bodies it
replaced: the generators read their weight ids off ``Path`` and
``PathCollection`` records built by a walk with a dict of held strands.
And the walk and the generators as they were before the sink sets came
off ``_lex_table`` and the sizes were walked in order: sink sets built by
sorting a set, the generators gathered in a dict of every index and
sorted once by ``precedes_key``. The walk program's extremal indices,
its steps and ``s_vw`` must agree with those copies' generators: each
step must read its generator's index and divide by the ids added since
the independent generator before it in its size. The oracle's
collections (``oracle.graph_extremal_collections``), listed by brute
force, must be the record walk's.
"""

import random

import pytest

from tnnflag.extremal import _walk_program
from tnnflag.oracle import (
    Generator, Path, PathCollection, graph_extremal_collections,
)
from tnnflag.perms import bruhat_pairs, identity, longest_element
from tnnflag.wiring import _greedy_prefixes, _reached, build_diagram

from walk_reference import assert_program_matches, generators


def precedes_key(I):
    """Sort key for the traversal order: larger size first, then lex."""
    return (-len(I), I)


def _left_greedy_collection_reference(d, sources):
    holder = {d.strand_of_label(s): s for s in sources}   # strand -> source
    taken = {s: [] for s in holder.values()}
    for e in d.edges:
        s = holder.get(e.lower)
        if s is not None and e.upper not in holder:
            del holder[e.lower]
            holder[e.upper] = s
            taken[s].append(e)
    return PathCollection(tuple(Path(s, d.strand_of_label(s), tuple(es))
                                for s, es in sorted(taken.items())))


def _graph_extremal_collections_reference(d, k):
    if not 1 <= k <= d.n:
        raise ValueError("k out of range")
    top_down = sorted(range(1, k + 1), key=d.strand_of_label, reverse=True)
    greedy = _left_greedy_collection_reference(d, top_down).paths
    diag = tuple(Path(s, d.strand_of_label(s), ()) for s in range(1, k + 1))
    mask = sum(1 << p.sink for p in diag)
    first = {mask: 0}
    for i, s in enumerate(top_down, start=1):
        mask ^= (1 << diag[s - 1].sink) ^ (1 << greedy[s - 1].sink)
        first.setdefault(mask, i)
    colls = []
    for i in first.values():
        placed = set(top_down[:i])
        colls.append(PathCollection(tuple(
            greedy[s - 1] if s in placed else diag[s - 1]
            for s in range(1, k + 1))))
    return sorted(colls, key=lambda c: sorted(c.sinks))


def _generators_reference(v, w):
    d = build_diagram(v, w)
    ids = {tuple(sorted(c.sinks)): tuple(e.weight_id for p in c.paths
                                         for e in p.edges)
           for k in range(1, len(v))
           for c in _graph_extremal_collections_reference(d, k)}
    used = set()
    out = []
    for I in sorted(ids, key=precedes_key):
        new = min(set(ids[I]) - used, default=None)
        used.update(ids[I])
        out.append((I, ids[I], new, new is not None or not ids[I]))
    return tuple(out)


def _greedy_prefixes_sorting_reference(d, k):
    holder = [0, *(s if s <= k else 0 for s in d.source_label)]
    start = [r for r in range(d.n, 0, -1) if holder[r]]
    climbed = {holder[r]: [] for r in start}
    for e in d.edges:
        s = holder[e.lower]
        if s and not holder[e.upper]:
            holder[e.lower], holder[e.upper] = 0, s
            climbed[s].append(e)
    paths, sinks = dict.fromkeys(sorted(climbed), ()), set(start)
    found = [(tuple(sorted(sinks)), tuple(paths.values()))]
    for r, (s, es) in zip(start, climbed.items()):
        if es:
            paths[s] = tuple(es)
            sinks ^= {r, es[-1].upper}
            found.append((tuple(sorted(sinks)), tuple(paths.values())))
    return sorted(found)


def _generators_sorting_reference(v, w):
    d = build_diagram(v, w)
    ids = {I: tuple(e.weight_id for es in climbed for e in es)
           for k in range(1, len(v))
           for I, climbed in _greedy_prefixes_sorting_reference(d, k)}
    used = set()
    out = []
    for I in sorted(ids, key=precedes_key):
        new = min(set(ids[I]) - used, default=None)
        used.update(ids[I])
        out.append((I, ids[I], new, new is not None or not ids[I]))
    return tuple(out)


def _walk_by_label(d, k):
    """Size k's list of ``_greedy_prefixes(d)`` as the sorting walk lists it: per sink
    set, the edges each source climbs, by source label. The first set
    adds no path and each later one the path of a source still diagonal,
    which is not empty."""
    edge = {e.weight_id: e for e in d.edges}
    paths = [()] * k
    out = []
    for i, (I, s, ids, _) in enumerate(_greedy_prefixes(d)[k - 1]):
        assert (s, ids) == (0, ()) if i == 0 else \
            1 <= s <= k and paths[s - 1] == () and ids, (d.cell, k, i)
        if s:
            paths[s - 1] = tuple(map(edge.__getitem__, ids))
        out.append((I, tuple(paths)))
    return out


def _cells():
    return ([c for n in (3, 4, 5) for c in bruhat_pairs(n)]
            + random.Random(27).sample(bruhat_pairs(6), 300)
            + [(identity(n), longest_element(n)) for n in (7, 8)])


def test_generators_match_the_record_walk():
    """Every S3-S5 cell, 300 seeded S6 cells and the S7 and S8 top cells:
    the walk program against the record walk's generators, in order."""
    for v, w in _cells():
        assert_program_matches(
            v, w, [Generator(*g) for g in _generators_reference(v, w)])


def test_walk_and_generators_match_the_sorting_versions():
    """Every S3-S5 cell, 300 seeded S6 cells and the S7 and S8 top cells:
    the walk at every k in 1..n, its added paths put in place, gives the
    sorting walk's sink sets and climbed edges, in its order, and the walk
    program agrees with the generators sorted by ``precedes_key``."""
    for v, w in _cells():
        d = build_diagram(v, w)
        for k in range(1, len(v) + 1):
            assert _walk_by_label(d, k) == \
                _greedy_prefixes_sorting_reference(d, k), (v, w, k)
        assert_program_matches(
            v, w, [Generator(*g) for g in _generators_sorting_reference(v, w)])


def test_each_generator_adds_its_path_to_the_one_before():
    """Every S3-S5 cell, 300 seeded S6 cells and the S6-S8 top cells: the
    walk program lists the sweep's indices, and its steps, its extremal
    indices and ``s_vw`` agree with the frozen generators
    (``assert_program_matches``). ``_solve`` reads each value against the
    one before it by this, and ``verify`` checks it against the oracle's
    generators too."""
    for v, w in _cells() + [(identity(6), longest_element(6))]:
        assert list(_walk_program(v, w)[0]) == _reached(build_diagram(v, w)), \
            (v, w)
        assert_program_matches(v, w, generators(v, w))


def test_extremal_collections_match_the_record_walk():
    cells = [c for n in (3, 4) for c in bruhat_pairs(n)]
    cells += random.Random(28).sample(bruhat_pairs(5), 100)
    cells += [(identity(n), longest_element(n)) for n in (6, 7)]
    for v, w in cells:
        d = build_diagram(v, w)
        for k in range(1, len(v) + 1):
            assert graph_extremal_collections(d, k) == \
                _graph_extremal_collections_reference(d, k), (v, w, k)


def test_all_placed_collection_matches_the_record_walk():
    """Every S3/S4 cell and every k in 1..n: the last collection of size
    k, where all of 1'..k' are placed, is the record walk's from those
    sources; a k out of range raises ValueError."""
    for v, w in [c for n in (3, 4) for c in bruhat_pairs(n)]:
        d = build_diagram(v, w)
        for k in range(1, len(v) + 1):
            assert graph_extremal_collections(d, k)[-1] == \
                _left_greedy_collection_reference(d, range(1, k + 1)), (v, w, k)
        for bad in (0, len(v) + 1):
            with pytest.raises(ValueError):
                graph_extremal_collections(d, bad)
