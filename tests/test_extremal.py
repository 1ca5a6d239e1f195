import random
from collections import Counter
from fractions import Fraction

import pytest

from tnnflag.extremal import (
    SupportVector, cell_support, extremal_index_set, extremal_indices,
    is_supported, s_vw, xi,
)
from tnnflag.perms import (
    all_perms, bruhat_leq, bruhat_pairs, gale_leq, identity, inverse, length,
    longest_element,
)
from tnnflag.algebra import Trop
from tnnflag.oracle import (
    Generator, LaurentMonomial, generators, graph_extremal_collections,
)
from tnnflag.plucker import PlueckerVector, TropPlueckerVector, phi, trop_phi
from tnnflag.wiring import build_diagram

import walk_reference
from walk_reference import assert_program_matches


def precedes_key(I):
    """Sort key for the traversal order: larger size first, then lex."""
    return (-len(I), I)

EX_V, EX_W = (1, 3, 2, 4), (4, 2, 1, 3)


def _cells(n):
    ps = list(all_perms(n))
    return [(v, w) for v in ps for w in ps if bruhat_leq(v, w)]


def test_cell_support_example_cell():
    sup = cell_support(EX_V, EX_W)
    assert sup.sets[1] == {(1,), (2,), (3,)}
    assert sup.sets[2] == {(1, 3), (2, 3)}
    assert sup.sets[3] == {(1, 2, 3), (1, 3, 4), (2, 3, 4)}


def test_cell_support_matches_oracle_s3():
    """Every cell of S3 and S4 and a seeded 20-cell sample of S5."""
    from tnnflag.oracle import support_oracle
    cells = _cells(3) + _cells(4) + random.Random(3).sample(_cells(5), 20)
    for v, w in cells:
        sup = cell_support(v, w)
        for k in range(1, len(v)):
            assert sup.sets[k] == support_oracle(v, w, k), (v, w, k)


def test_xi_example_cell():
    sup = cell_support(EX_V, EX_W)
    assert xi(sup, (1,)) == (3,)
    assert xi(sup, (3,)) == (3,)
    assert xi(sup, (1, 3)) == (2, 3)
    assert xi(sup, (1, 2, 3)) == (1, 3, 4)
    assert xi(sup, (1, 3, 4)) == (2, 3, 4)
    # xi fixes unsupported indices
    assert xi(sup, (2, 4)) == (2, 4)


def test_extremal_chains_example_cell():
    chains = {ch.size: ch.chain for ch in extremal_indices(cell_support(EX_V, EX_W))}
    assert chains[1] == ((1,), (3,))
    assert chains[2] == ((1, 3), (2, 3))
    assert chains[3] == ((1, 2, 3), (1, 3, 4), (2, 3, 4))


def test_chain_order_is_gale_and_precedes_order():
    """Within one size, the xi chain is Gale-increasing and agrees with the
    traversal sort key."""
    for v, w in _cells(4):
        for ch in extremal_indices(cell_support(v, w)):
            for a, b in zip(ch.chain, ch.chain[1:]):
                assert gale_leq(a, b) and a != b
            assert list(ch.chain) == sorted(ch.chain, key=precedes_key)


def test_extremal_requires_flag_matroid():
    broken = SupportVector(4, {1: frozenset({(1,)}),
                               2: frozenset({(1, 4), (2, 3)}),
                               3: frozenset({(1, 2, 4)})})
    with pytest.raises(ValueError):
        extremal_indices(broken)
    # an absent size is an empty block
    missing = SupportVector(3, {1: frozenset({(1,)})})
    with pytest.raises(ValueError, match="support is not a flag matroid"):
        extremal_indices(missing)


def test_s_vw_example_cell():
    assert set(s_vw(EX_V, EX_W)) == {
        (1, 2, 3), (1, 3, 4), (2, 3, 4), (1, 3), (1,), (3,)}


def test_s_vw_counts():
    for v, w in _cells(3) + _cells(4):
        assert len(s_vw(v, w)) == (len(v) - 1) + (length(w) - length(v))


def _generator_cells():
    """Every cell of S3 and S4, a seeded 60-cell sample of S5 and the S6
    top cell."""
    return (_cells(3) + _cells(4) + random.Random(55).sample(_cells(5), 60)
            + [(identity(6), longest_element(6))])


def test_generators_solve_every_weight_once():
    """The counts ``verify`` checks and the library does not re-prove, on
    the oracle's generators: each adds at most one fresh weight id, its
    own ``new_weight_id``; the fresh ids are the cell's weights, each
    once; and ``s_vw`` has (n-1) + dim of them."""
    for v, w in _generator_cells():
        gens = generators(v, w)
        used = set()
        for g in gens:
            fresh = set(g.weight_ids) - used
            used |= fresh
            assert len(fresh) <= 1, (v, w, g.index)
            assert fresh == {g.new_weight_id} - {None}, (v, w, g.index)
            assert g.in_svw == (bool(fresh) or not g.weight_ids), (v, w, g.index)
        new = [g.new_weight_id for g in gens if g.new_weight_id is not None]
        assert len(new) == len(set(new)) == length(w) - length(v), (v, w)
        assert set(new) == set(build_diagram(v, w).weight_ids()), (v, w)
        assert len(s_vw(v, w)) == (len(v) - 1) + length(w) - length(v), (v, w)


def generators_reference(v, w):
    """`generators` as it was while each generator kept its path
    collection and its monomial, and re-checked the counts itself, kept as
    the reference for the test below: per extremal index, (index, the
    monomial's exponent keys, new_weight_id, in_svw), its collections the
    oracle's."""
    d = build_diagram(v, w)
    collections = {tuple(sorted(c.sinks)): c for k in range(1, len(v))
                   for c in graph_extremal_collections(d, k)}
    used = set()
    out = []
    for I in sorted(collections, key=precedes_key):
        coll = collections[I]
        mono = LaurentMonomial(1, {e.weight_id: 1
                                   for p in coll.paths for e in p.edges})
        fresh = sorted(set(mono.exponents) - used)
        used |= set(mono.exponents)
        if not mono.exponents:
            out.append((I, tuple(mono.exponents), None, True))
        elif fresh:
            if len(fresh) != 1:
                raise AssertionError(f"extremal index {I} introduces "
                                     f"{len(fresh)} new edges")
            out.append((I, tuple(mono.exponents), fresh[0], True))
        else:
            out.append((I, tuple(mono.exponents), None, False))
    solved = {new for _, _, new, _ in out if new is not None}
    if solved != set(d.weight_ids()):
        raise AssertionError("not every weight got an independent generator")
    return out


def test_generators_match_reference():
    """The walk program, its extremal indices and ``s_vw`` agree with the
    reference, and each of the oracle's generators is its reference
    tuple, in the same order, holding only ints, bools and tuples: no
    path collection and no monomial."""
    assert Generator._fields == ("index", "weight_ids", "new_weight_id",
                                 "in_svw")
    for v, w in _generator_cells():
        want = [Generator(*g) for g in generators_reference(v, w)]
        assert_program_matches(v, w, want)
        gens = generators(v, w)
        assert list(gens) == want, (v, w)
        for g in gens:
            assert type(g.weight_ids) is tuple and all(
                type(j) is int for j in g.weight_ids + g.index), (v, w)
            assert type(g.new_weight_id) in (int, type(None)), (v, w)
            assert type(g.in_svw) is bool, (v, w)


def test_verify_cell_checks_the_generator_counts(monkeypatch):
    """``verify`` catches generators that break each count the library
    does not check: two fresh ids at one index, a cell weight no
    generator solves, and a wrong number of independent indices; an
    extremal index with a second path collection, or whose collection's
    weight is not a plain positive monomial; and a step of the walk
    program that ``_solve`` runs with its position shifted, or with an id
    dropped from those it divides by (on the S4 top cell, whose steps
    divide by some), and the program's extremal indices out of order."""
    import tnnflag.extremal as extremal
    import tnnflag.oracle as oracle
    from tnnflag.wiring import WiringDiagram

    gens = generators(EX_V, EX_W)
    oracle._verify_cell(EX_V, EX_W, 0, 0)

    class OneMoreWeight(WiringDiagram):
        def weight_ids(self):
            return super().weight_ids() + (99,)

    diagram = build_diagram(EX_V, EX_W)
    tampered = {
        # (2, 3, 4), on weights 4 and 2, walked first
        r"extremal index \(2, 3, 4\) introduces 2 new edges": (
            lambda v, w: gens[2:3] + gens[:2] + gens[3:], build_diagram),
        "not every weight got an independent generator": (
            generators, lambda v, w: OneMoreWeight(*diagram)),
        "independent generator count mismatch": (
            lambda v, w: tuple(g._replace(in_svw=True) for g in gens),
            build_diagram),
    }
    for message, (gens_of, diagram_of) in tampered.items():
        monkeypatch.setattr(oracle, "generators", gens_of)
        monkeypatch.setattr(oracle, "build_diagram", diagram_of)
        with pytest.raises(AssertionError, match=message):
            oracle._verify_cell(EX_V, EX_W, 0, 0)
    monkeypatch.undo()

    listed = oracle.enumerate_path_collections
    for name, fake, message in (
            ("enumerate_path_collections", lambda *args: 2 * listed(*args),
             "has another path collection"),
            ("collection_weight", lambda c, d: LaurentMonomial(-1),
             "is not a plain positive monomial")):
        monkeypatch.setattr(oracle, name, fake)
        with pytest.raises(AssertionError, match=message):
            oracle._verify_cell(EX_V, EX_W, 0, 0)
        monkeypatch.undo()

    def shifted(indices, steps, extremal):
        (k, i, new, others), *rest = steps[1:]    # (1, 3, 4) on EX
        return indices, (steps[0], (k, i + 1, new, others), *rest), extremal

    def dropped(indices, steps, extremal):
        s = next(s for s, step in enumerate(steps) if step[3])
        k, i, new, others = steps[s]
        return (indices, (*steps[:s], (k, i, new, others[1:]), *steps[s + 1:]),
                extremal)

    def swapped(indices, steps, extremal):
        return indices, steps, (extremal[1], extremal[0], *extremal[2:])

    top = (identity(4), longest_element(4))
    for (v, w), message, tamper in (
            ((EX_V, EX_W), r"walk step at \(1, 3, 4\) disagrees", shifted),
            (top, r"walk step at \(1, 4\) disagrees", dropped),
            ((EX_V, EX_W), "walk program does not list", swapped)):
        program = extremal._walk_program(v, w)
        monkeypatch.setattr(oracle, "_walk_program",
                            lambda v, w: tamper(*program))
        with pytest.raises(AssertionError, match=message):
            oracle._verify_cell(v, w, 0, 0)
        monkeypatch.undo()
        oracle._verify_cell(v, w, 0, 0)


def test_extremal_coordinates_are_monomials():
    """At a parameterized point, each extremal coordinate is the product of
    the weights on its unique collection (exactly, after normalization)."""
    rng = random.Random(9)
    for v, w in _cells(3):
        a = {j: Fraction(rng.randint(1, 9)) for j in build_diagram(v, w).weight_ids()}
        p = phi(v, w, a)
        for g in generators(v, w):
            expected = Fraction(1)
            for wid in g.weight_ids:
                expected *= a[wid]
            assert p.coord(g.index) == expected, (v, w, g.index)


def _assert_generators_match_enumeration(cells):
    """The oracle's generators, read off the Xi chains and the one path
    collection that the enumeration finds at each index, whose signed
    weight is a plain positive monomial, are the frozen greedy walk's
    records, in the same order."""
    for v, w in cells:
        gens = generators(v, w)
        assert gens == walk_reference.generators(v, w), (v, w)
        assert all(type(g) is Generator for g in gens), (v, w)


def test_generators_match_enumeration_on_s3_s4():
    _assert_generators_match_enumeration(_cells(3) + _cells(4))


def test_generators_match_enumeration_on_s5_and_the_s7_top_cell():
    _assert_generators_match_enumeration(
        bruhat_pairs(5) + [(identity(7), longest_element(7))])


def test_top_cell_extremal_count():
    for n in (3, 4, 5):
        ext = extremal_index_set(cell_support(identity(n), longest_element(n)))
        # the full set [n] is a basis but not a proper coordinate
        assert len(ext) + 1 == n * (n - 1) // 2 + n


def test_is_supported_dispatch():
    sup = cell_support(EX_V, EX_W)
    assert is_supported(sup, (3, 1))          # sorts its argument
    assert is_supported(sup, (2, 3)) and not is_supported(sup, (2, 4))


def extremal_indices_reference(p):
    """`extremal_indices` as it was before its chain starts were read as
    the lexicographic minima, kept as the reference for the test below."""
    from tnnflag.extremal import ExtremalChain, flag_matroid_check
    if not isinstance(p, SupportVector):
        p = SupportVector(p.n, p.support())
    sup = p.sets
    if not flag_matroid_check(sup):
        raise ValueError("support is not a flag matroid")
    out = []
    for k in range(1, p.n):
        if not sup[k]:
            raise ValueError(f"no supported index of size {k}")
        start = min(sup[k])
        if not all(gale_leq(start, J) for J in sup[k]):
            raise ValueError(f"size {k} has no Gale-minimal supported index")
        chain = [start]
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


def _outcome(fn, p):
    try:
        return fn(p)
    except ValueError as exc:
        return str(exc)


def _random_supports(n, rng):
    """Supports of the top minors of sparse random integer matrices (flag
    matroids, or empty blocks when the matrix is singular), the same with
    one index added or removed, and uniformly random index sets."""
    from tnnflag.oracle import _top_minors
    from tnnflag.plucker import all_proper_indices
    m = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
    realizable = {k: set() for k in range(1, n)}
    for I in _top_minors(m).coords:
        realizable[len(I)].add(I)
    edited = {k: set(s) for k, s in realizable.items()}
    edited[rng.randrange(1, n)] ^= {rng.choice(list(all_proper_indices(n)))}
    uniform = {k: set() for k in range(1, n)}
    for I in all_proper_indices(n):
        if rng.random() < 0.6:
            uniform[len(I)].add(I)
    return [realizable, edited, uniform]


def _as_inputs(n, sets):
    """One support as a SupportVector and as classical and tropical
    vectors with that support."""
    return [SupportVector(n, {k: frozenset(s) for k, s in sets.items()}),
            PlueckerVector(n, {I: Fraction(1) for s in sets.values()
                               for I in s}),
            TropPlueckerVector(n, {I: Trop.of(0) for s in sets.values()
                                   for I in s})]


def test_extremal_indices_matches_reference():
    """Equal chains, or an equal ValueError text, on every cell support of
    S3 and S4 (each also with one index added and one removed) and on
    seeded random supports at n = 3..5."""
    rng = random.Random(5)
    supports = []
    for n in (3, 4):
        for v, w in _cells(n):
            sets = {k: set(s) for k, s in cell_support(v, w).sets.items()}
            supports.append((n, sets))
            for _ in range(2):
                edited = {k: set(s) for k, s in sets.items()}
                k = rng.randrange(1, n)
                edited[k] ^= {tuple(sorted(rng.sample(range(1, n + 1), k)))}
                supports.append((n, edited))
    for n in (3, 4, 5):
        for _ in range(150):
            supports += [(n, s) for s in _random_supports(n, rng)]
    # passes the necessary conditions but is not a flag matroid
    supports.append((3, {1: {(2,), (3,)}, 2: {(1, 3), (2, 3)}}))
    outcomes = Counter()
    for n, sets in supports:
        for p in _as_inputs(n, sets):
            got = _outcome(extremal_indices, p)
            assert got == _outcome(extremal_indices_reference, p), (n, sets)
            outcomes[got if isinstance(got, str) else "chains"] += 1
    assert outcomes["chains"] and outcomes["support is not a flag matroid"] \
        and outcomes["Gale-extreme indices do not form a flag"], outcomes


def flag_matroid_check_reference(support):
    """`flag_matroid_check` as it was before it ran on strand masks, kept
    as the reference for the test below: sets of sorted tuples, exchange
    tried pair by pair, containment between every pair of sizes."""
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


def _toggled(n, sets, rng):
    """sets with one seeded index of a seeded size added or removed."""
    edited = {k: set(s) for k, s in sets.items()}
    k = rng.randrange(1, n)
    edited[k] ^= {tuple(sorted(rng.sample(range(1, n + 1), k)))}
    return edited


def test_flag_matroid_check_matches_reference():
    """The same verdict as the set-based reference on every cell support
    of S3 and S4 and a seeded sample of S5, each also with two seeded
    one-index toggles; on seeded random supports at n = 4..6, also with a
    block emptied or a wrong-size tuple added; and on the documented
    support that passes but is not a flag matroid, an unsorted tuple and
    element 0. A tuple with a repeated element is never a basis of the
    mask form, where the reference read (1, 1) as a 2-set."""
    from tnnflag.extremal import flag_matroid_check
    rng = random.Random(25)
    supports = []
    cells = [(n, c) for n in (3, 4) for c in bruhat_pairs(n)]
    cells += [(5, c) for c in rng.sample(bruhat_pairs(5), 40)]
    for n, (v, w) in cells:
        sets = cell_support(v, w).sets
        supports += [sets, _toggled(n, sets, rng), _toggled(n, sets, rng)]
    for n, draws in ((4, 60), (5, 40), (6, 20)):
        for _ in range(draws):
            for sets in _random_supports(n, rng):
                k = rng.randrange(1, n)
                supports += [sets, {**sets, k: set()},
                             {**sets, k: sets[k] | {tuple(range(1, k + 2))}}]
    supports += [{1: {(2,), (3,)}, 2: {(1, 3), (2, 3)}},
                 {1: {(2,), (3,)}, 2: {(3, 2)}},
                 {1: {(0,), (1,)}, 2: {(0, 1)}}, {1: {(0,)}, 2: {(1, 2)}},
                 {1: {(1, 1)}}, {}]
    verdicts = Counter()
    for sets in supports:
        got = flag_matroid_check(sets)
        assert got is flag_matroid_check_reference(sets), sets
        verdicts[got] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts
    assert flag_matroid_check_reference({2: {(1, 1)}})
    assert not flag_matroid_check({2: {(1, 1)}})
    assert not flag_matroid_check({1: {(1,)}, 2: {(1, 1), (1, 2)}})


def test_extremal_indices_keeps_the_raw_form():
    """On raw-backed phi and trop_phi vectors of every S3 and S4 cell: the
    chains of the cell's support, read without rendering the vector."""
    for n in (3, 4):
        for v, w in bruhat_pairs(n):
            want = extremal_indices(cell_support(v, w))
            a = {j: Fraction(j + 1) for j in build_diagram(v, w).weight_ids()}
            for p in (phi(v, w, a),
                      trop_phi(v, w, {j: Trop.of(x) for j, x in a.items()})):
                assert p._raw is not None
                assert extremal_indices(p) == want, (v, w, p.mode)
                assert p._raw is not None, (v, w, p.mode)


def lex_chain_cell_reference(support, n):
    """`_lex_chain_cell` as it was before it filled v and w directly, kept
    as the reference for the test below: the elements each index adds in
    order, then the rest, read as v^-1 and inverted."""
    for k in range(1, n):
        if not support[k]:
            raise ValueError(f"no supported index of size {k}")
    mins = [support[k][0] for k in range(1, n)]
    maxs = [support[k][-1] for k in range(1, n)]
    full = (1 << n + 1) - 2

    def chain_to_perm(chain):
        images = []
        seen = 0
        for k, I in enumerate(chain, start=1):
            mask = 0
            for i in I:
                mask |= 1 << i
            new = mask ^ seen
            if len(I) != k or mask & seen != seen or new & (new - 1) \
                    or not new & full:
                raise ValueError("Gale-extreme indices do not form a flag")
            images.append(new.bit_length() - 1)
            seen = mask
        images.extend(i for i in range(1, n + 1) if not seen >> i & 1)
        return inverse(tuple(images))

    v, w = chain_to_perm(mins), chain_to_perm(maxs)
    if not all(a <= b for lo, hi in zip(mins, maxs) for a, b in zip(lo, hi)):
        raise ValueError("no cell: v is not <= w in Bruhat order")
    return v, w


def test_lex_chain_cell_matches_reference():
    """An equal cell, or an equal ValueError text, the library given each
    support as a list by size and the reference as a mapping by size: on
    the sorted blocks of every S3-S5 cell support, each also with a seeded one-index toggle; on
    chains through element 0, element n+1 or a repeated element, with an
    unsorted index, an empty size or a pair that is not nested; and on
    seeded random chains of elements 0..n+1 at n = 1..6."""
    from tnnflag.extremal import _lex_chain_cell
    rng = random.Random(26)
    inputs = []
    for n in (3, 4, 5):
        for v, w in bruhat_pairs(n):
            blocks = {k: sorted(b) for k, b in cell_support(v, w).sets.items()}
            k = rng.randrange(1, n)
            I = tuple(sorted(rng.sample(range(1, n + 1), k)))
            inputs += [(n, blocks),
                       (n, {**blocks, k: sorted(set(blocks[k]) ^ {I})})]
    flag = {1: [(1,), (4,)], 2: [(1, 2), (3, 4)], 3: [(1, 2, 3), (2, 3, 4)]}
    for k, I, at in ((1, (0,), 0), (2, (0, 1), 0), (1, (5,), -1),
                     (3, (3, 4, 5), -1), (2, (1, 1), 0), (3, (2, 4, 4), -1),
                     (2, (2, 1), 0), (3, (4, 3, 2), -1), (2, (2, 3), 0),
                     (2, (1, 4), -1)):
        edited = {j: list(b) for j, b in flag.items()}
        edited[k][at] = I
        inputs.append((4, edited))
    inputs += [(4, {**flag, 2: []}), (4, flag), (1, {}),
               (2, {1: [(2,), (1,)]})]
    for _ in range(300):
        n = rng.randrange(1, 7)
        inputs.append((n, {k: [tuple(sorted(rng.sample(range(n + 2), k)))
                               for _ in range(rng.randrange(1, 3))]
                           for k in range(1, n)}))
    outcomes = Counter()
    for n, support in inputs:
        got = _outcome(lambda s: _lex_chain_cell([s[k] for k in range(1, n)], n),
                       support)
        assert got == _outcome(lambda s: lex_chain_cell_reference(s, n),
                               support), (n, support)
        outcomes[got if isinstance(got, str) else "cell"] += 1
    assert outcomes["cell"] and outcomes["no supported index of size 2"] \
        and outcomes["Gale-extreme indices do not form a flag"] \
        and outcomes["no cell: v is not <= w in Bruhat order"], outcomes
