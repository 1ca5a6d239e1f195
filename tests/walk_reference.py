"""Frozen copies of the generators and the left-greedy collections as the
library built them from its greedy walk (``wiring._greedy_prefixes``)
while it still had them: the walk references of the tests, which stay as
cheap as the walk. ``tnnflag.oracle`` builds the same records another
way, from the Xi chains and the path collections listed one by one; the
tests check the two against each other. ``assert_program_matches``
checks the library's compiled walk (``extremal._walk_program``) and
``s_vw`` against generator records."""

from functools import lru_cache

from tnnflag.extremal import _walk_program, s_vw
from tnnflag.oracle import Generator, Path, PathCollection
from tnnflag.wiring import _greedy_prefixes, build_diagram


@lru_cache(maxsize=4096)
def generators(v, w):
    """Extremal indices in traversal order (larger size first, then
    lexicographically): the sink sets of each size's left-greedy
    prefixes, each with its collection's edge weight ids, by source
    label, and the walk's fresh id. Each prefix adds one source's climbed
    path to the one before it, so its ids are that path's put in its
    source's place. An index is independent when it adds a fresh id, or
    when its collection is the all-diagonal one with no ids."""
    d = build_diagram(v, w)
    walks, out = _greedy_prefixes(d), []
    for k in range(d.n - 1, 0, -1):
        paths = [()] * (k + 1)          # by source label, the ids climbed
        for I, s, climbed, new in walks[k - 1]:
            paths[s] = climbed
            ids = sum(paths, ())
            out.append(Generator(I, ids, new, new is not None or not ids))
    return tuple(out)


def graph_extremal_collections(d, k):
    """For each i in 0..k: left-greedy paths from the topmost i sources of
    {1'..k'} plus diagonal paths from the rest, one per sink set, by sink
    set, as records, each set's one added path put in its source's
    place."""
    if not 1 <= k <= d.n:
        raise ValueError("k out of range")
    climbed = [()] * (k + 1)            # by source label
    out = []
    for _, s, ids, _ in _greedy_prefixes(d)[k - 1]:
        climbed[s] = tuple(e for e in d.edges if e.weight_id in ids)
        out.append(PathCollection(tuple(Path(s, d.strand_of_label(s), climbed[s])
                                        for s in range(1, k + 1))))
    return out


def assert_program_matches(v, w, gens):
    """The cell's walk program against the generator records ``gens``:
    its extremal indices are theirs, in order, and the very tuples of its
    size blocks; ``s_vw`` lists the independent ones; and it has one step
    per independent generator, which reads that generator's index by
    position, solves its new weight id (none at the size's unit, which
    divides by nothing), and divides by ids that, with the new one, are
    the generator's ids beyond the independent one before it in its size,
    as multisets."""
    indices, steps, extremal = _walk_program(v, w)
    assert extremal == tuple(g.index for g in gens), (v, w)
    for I in extremal:
        block = indices[len(I) - 1]
        assert block[block.index(I)] is I, (v, w, I)
    independent = [g for g in gens if g.in_svw]
    assert s_vw(v, w) == [g.index for g in independent], (v, w)
    assert len(steps) == len(independent), (v, w)
    before = {}                         # by size: the ids of the last step
    for g, (k, i, new, others) in zip(independent, steps):
        assert type(others) is tuple and all(
            type(j) is int for j in others), (v, w, g.index)
        assert k == len(g.index) and indices[k - 1][i] == g.index, \
            (v, w, g.index)
        assert new == g.new_weight_id and new not in others, (v, w, g.index)
        assert (k in before) == (new is not None), (v, w, g.index)
        added = others + (() if new is None else (new,))
        assert sorted(g.weight_ids) == \
            sorted(before.get(k, ()) + added), (v, w, g.index)
        before[k] = g.weight_ids
