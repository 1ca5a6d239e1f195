"""The integer sweep behind phi and trop_phi against the oracles, on
weights that make clearing denominators hard: pairwise-coprime prime
denominators whose lcm exceeds 2**64, numerators above 2**64, plain ints,
and negative, zero and mixed tropical weights; and against the kernels
it replaced, kept here as frozen references: the dict-based sweep, and
the mask-indexed sweep over per-diagram events that the compiled
program replaced (with ``cell_support`` as it read that sweep), whose
blocks the program's reader must list as the mask-indexed read did."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from tnnflag.algebra import Trop
from tnnflag.extremal import SupportVector, cell_support
from tnnflag.membership import decide_tnn, decide_trop
from tnnflag.oracle import (
    collection_weight, enumerate_path_collections, phi_minors,
    trop_phi_enumerated,
)
from tnnflag.perms import (
    all_perms, bruhat_leq, bruhat_pairs, identity, longest_element,
)
from tnnflag.plucker import PlueckerVector, TropPlueckerVector, phi, trop_phi
from tnnflag.wiring import NegativeSegment, VerticalEdge, build_diagram

from sweep_reference import index_masks, raw_blocks, raw_sweep

# Mersenne primes; the first alone exceeds 2**64
MERSENNE = [2 ** p - 1 for p in (89, 61, 107, 127, 521, 607, 1279)]
SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73]

# cells whose edges span 2-3 strands across several -1 segments
NEGATIVE_SEGMENT_CELLS = [((3, 5, 2, 4, 1), (5, 4, 2, 3, 1)),
                          ((3, 2, 1, 5, 4), (5, 4, 2, 3, 1))]


def _cells(n):
    ps = list(all_perms(n))
    return [(v, w) for v in ps for w in ps if bruhat_leq(v, w)]


def _classical_draws(ids, rng, denominators):
    """(name, weights) for each classical family on the weight ids."""
    yield "coprime prime denominators", {
        j: Fraction(rng.randint(1, 50), q) for j, q in zip(ids, denominators)}
    yield "numerators above 2**64", {
        j: Fraction(2 ** 64 + rng.randint(1, 10 ** 6), rng.randint(1, 9))
        for j in ids}
    yield "plain ints", {j: rng.randint(1, 30) for j in ids}


def _tropical_draws(ids, rng, denominators):
    """(name, weights) for each tropical family on the weight ids."""
    yield "negative", {j: Trop(Fraction(-rng.randint(1, 50), q))
                       for j, q in zip(ids, denominators)}
    yield "zero", {j: Trop(rng.choice([0, Fraction(0)])) for j in ids}
    yield "mixed", {j: Trop(rng.choice([
        rng.randint(-9, 9),
        Fraction(rng.randint(-9, 9), q),
        Fraction(rng.choice([-1, 1]) * (2 ** 64 + rng.randint(0, 99)), q),
    ])) for j, q in zip(ids, denominators)}


def _assert_kernel_matches_oracles(cells, seed):
    rng = random.Random(seed)
    for v, w in cells:
        ids = build_diagram(v, w).weight_ids()
        if ids:
            assert math.lcm(*MERSENNE[:len(ids)]) > 2 ** 64
        for name, a in _classical_draws(ids, rng, MERSENNE):
            assert phi(v, w, a).coords == phi_minors(v, w, a).coords, \
                (v, w, name)
        for name, x in _tropical_draws(ids, rng, MERSENNE):
            assert trop_phi(v, w, x).coords == \
                trop_phi_enumerated(v, w, x).coords, (v, w, name)


def test_kernel_matches_oracles_on_negative_segment_cells():
    _assert_kernel_matches_oracles(NEGATIVE_SEGMENT_CELLS, seed=35)


@pytest.mark.parametrize("n", [3, 4])
def test_kernel_matches_oracles_on_every_cell(n):
    _assert_kernel_matches_oracles(_cells(n), seed=n)


def test_kernel_round_trips_the_s7_top_cell():
    """phi and trop_phi at S7 scale, through the deciders: every draw is
    certified in its cell with its own weights back."""
    v, w = identity(7), longest_element(7)
    ids = build_diagram(v, w).weight_ids()
    assert math.lcm(*SMALL_PRIMES[:len(ids)]) > 2 ** 64
    rng = random.Random(7)
    for name, a in _classical_draws(ids, rng, SMALL_PRIMES):
        cert = decide_tnn(phi(v, w, a))
        assert cert.verdict == "member" and cert.cell == (v, w), name
        assert cert.weights == a, name
    for name, x in _tropical_draws(ids, rng, SMALL_PRIMES):
        cert = decide_trop(trop_phi(v, w, x))
        assert cert.verdict == "member" and cert.cell == (v, w), name
        assert cert.weights == x, name


def test_every_collection_into_a_size_has_one_sign():
    """The theorem the sign-free classical sweep rests on: on every S3-S4
    cell and the negative-segment cells, every non-intersecting path
    collection {1'..k'} -> I, over every index I of size k, has the same
    Lindstroem-Gessel-Viennot sign (``collection_weight``'s coefficient,
    from the sink order and the -1 segments crossed)."""
    for v, w in _cells(3) + _cells(4) + NEGATIVE_SEGMENT_CELLS:
        d = build_diagram(v, w)
        for k in range(1, d.n):
            signs = {collection_weight(c, d).coefficient
                     for I in itertools.combinations(range(1, d.n + 1), k)
                     for c in enumerate_path_collections(d, range(1, k + 1), I)}
            assert len(signs) == 1, (v, w, k)


# ---------------------------------------------------------------------------
# The sweep against the dict-based kernel it replaced
# ---------------------------------------------------------------------------

def _reference_events(d):
    """The diagram's events as the replaced kernel read them: (weight_id,
    lower, upper, strands strictly between) for an edge, (None, strand, 0,
    0) for a -1 segment, as strand bit masks."""
    events = []
    for ev in sorted([*d.neg_segments, *d.edges],
                     key=lambda ev: (ev.key, isinstance(ev, VerticalEdge))):
        if isinstance(ev, NegativeSegment):
            events.append((None, 1 << (ev.strand - 1), 0, 0))
        else:
            lower, upper = 1 << (ev.lower - 1), 1 << (ev.upper - 1)
            events.append((ev.weight_id, lower, upper, upper - (lower << 1)))
    return events


def _reference_sweep(v, w, x, cls):
    """The dict-based sweep: every live state visited at every edge, and
    classically every state multiplied by the lcm L of all the weights'
    denominators at each edge."""
    d = build_diagram(v, w)
    signed = cls.signed
    L = math.lcm(*(q.denominator for q in x.values()))
    a = {j: q.numerator * (L // q.denominator) for j, q in x.items()}
    value = {}
    occupied = 0
    for label in range(1, d.n):
        occupied |= 1 << (d.strand_of_label(label) - 1)
        value[occupied] = 1 if signed else 0
    for wid, lower, upper, jumped in _reference_events(d):
        if wid is None:
            if signed:
                for S in value:
                    if S & lower:
                        value[S] = -value[S]
            continue
        c_e = a[wid]
        if signed:
            old, value = value, {S: c * L for S, c in value.items()}
            for S, c in old.items():
                if S & lower and not S & upper:
                    T = S ^ lower ^ upper
                    if (S & jumped).bit_count() & 1:
                        value[T] = value.get(T, 0) - c * c_e
                    else:
                        value[T] = value.get(T, 0) + c * c_e
        else:
            for S, c in list(value.items()):
                if S & lower and not S & upper:
                    T = S ^ lower ^ upper
                    t = c + c_e
                    if t < value.get(T, t + 1):     # absent is infinity
                        value[T] = t
    if signed:
        value = {S: c for S, c in value.items() if c}
    coords = {}
    for block in index_masks(d.n):
        sup = {I for I, S in block if S in value}
        if not sup:
            continue
        raw = {I: value[S] for I, S in block if S in value}
        unit = raw[min(sup)]
        for I in sorted(sup):
            coords[I] = (Fraction(raw[I], unit) if signed
                         else Trop(Fraction(raw[I] - unit, L)))
    return cls(d.n, coords)


def _reference_draws(ids, rng, denominators):
    """(name, weights, tropical) for each family the kernel is compared on:
    benchmark-like rationals, plain ints (the in-place update), the given
    prime denominators, and mixed-sign tropical weights."""
    yield "benchmark-like", {j: Fraction(rng.randint(1, 99), rng.randint(1, 9))
                             for j in ids}, False
    yield "plain ints", {j: rng.randint(1, 30) for j in ids}, False
    yield "prime denominators", {
        j: Fraction(rng.randint(1, 50), q)
        for j, q in zip(ids, itertools.cycle(denominators))}, False
    yield "mixed-sign tropical", {j: Trop(rng.choice([
        rng.randint(-9, 9), Fraction(rng.randint(-99, 99), rng.randint(1, 9)),
    ])) for j in ids}, True


def _assert_kernel_matches_reference(cells, seed, denominators):
    rng = random.Random(seed)
    for v, w in cells:
        ids = build_diagram(v, w).weight_ids()
        for name, x, tropical in _reference_draws(ids, rng, denominators):
            if tropical:
                got = trop_phi(v, w, x)
                want = _reference_sweep(v, w, {j: t.value for j, t in x.items()},
                                        TropPlueckerVector)
            else:
                got, want = phi(v, w, x), _reference_sweep(v, w, x,
                                                           PlueckerVector)
            # equal coordinates, in the same dict order
            assert list(got.coords.items()) == list(want.coords.items()), \
                (v, w, name)


def test_kernel_matches_reference_on_s2_to_s4_and_negative_segment_cells():
    cells = [c for n in range(2, 5) for c in bruhat_pairs(n)]
    _assert_kernel_matches_reference(cells + NEGATIVE_SEGMENT_CELLS, 16,
                                     MERSENNE)


def test_kernel_matches_reference_on_sampled_s5_cells():
    """Every 20th S5 cell from a seeded offset."""
    cells = bruhat_pairs(5)
    _assert_kernel_matches_reference(
        cells[random.Random(16).randrange(20)::20], 17, MERSENNE)


@pytest.mark.parametrize("n", [7, 8])
def test_kernel_matches_reference_on_top_cells(n):
    _assert_kernel_matches_reference([(identity(n), longest_element(n))], n,
                                     SMALL_PRIMES)


# ---------------------------------------------------------------------------
# The compiled program against the mask-event sweep it replaced
# ---------------------------------------------------------------------------

def _mask_events(d):
    """The events ``build_diagram`` used to hold: edges and -1 segments in
    key order, a segment before an edge of the same key, each with the
    masks reachable from {1'..k'} it acts on: (weight_id, lower | upper,
    strands strictly between, masks holding lower but not upper) for an
    edge, (None, strand, 0, masks holding the strand) for a segment."""
    reach, S = set(), 0
    for label in range(1, d.n):
        S |= 1 << (d.strand_of_label(label) - 1)
        reach.add(S)
    events = []
    for ev in sorted([*d.neg_segments, *d.edges],
                     key=lambda ev: (ev.key, isinstance(ev, VerticalEdge))):
        if isinstance(ev, NegativeSegment):
            bit = 1 << (ev.strand - 1)
            events.append((None, bit, 0, tuple(sorted(
                S for S in reach if S & bit))))
        else:
            lower, upper = 1 << (ev.lower - 1), 1 << (ev.upper - 1)
            sources = tuple(sorted(S for S in reach
                                   if S & lower and not S & upper))
            reach.update(S ^ lower ^ upper for S in sources)
            events.append((ev.weight_id, lower | upper,
                           upper - (lower << 1), sources))
    return events


def _mask_sweep(d, events, x, signed):
    """The mask-indexed sweep over the diagram's ``_mask_events``: every
    reachable state rescaled at each edge with q != 1, each move's
    destination and sign computed from its mask."""
    value = [0 if signed else None] * (1 << d.n)
    S = 0
    for label in range(1, d.n):
        S |= 1 << (d.strand_of_label(label) - 1)
        value[S] = 1 if signed else 0
    L = 1
    if signed:
        for wid, move, jumped, sources in events:
            if wid is None:
                for S in sources:
                    value[S] = -value[S]
                continue
            p, q = x[wid].numerator, x[wid].denominator
            old = value
            if q != 1:
                value = [c * q for c in old]
            for S in sources:
                c = p * old[S]
                value[S ^ move] += -c if (S & jumped).bit_count() & 1 else c
    else:
        L = math.lcm(*(q.denominator for q in x.values()))
        a = {j: q.numerator * (L // q.denominator) for j, q in x.items()}
        for wid, move, _, sources in events:
            if wid is not None:
                c_e = a[wid]
                for S in sources:
                    t, T = value[S] + c_e, S ^ move
                    if value[T] is None or t < value[T]:
                        value[T] = t
    return value, L


def _alternating_weights(ids, rng):
    """Weights whose classical steps alternate between q = 1 and q != 1 in
    key order: a plain int, a Fraction over 4 or 6 in lowest terms, an
    integer-valued Fraction, again over 4 or 6, and so on."""
    def weight(t):
        if t % 2:
            return Fraction(rng.choice([1, 5, 7, 11, 13, 19, 25]),
                            rng.choice([4, 6]))
        if t % 4:
            return Fraction(6 * rng.randint(1, 30), 6)
        return rng.randint(1, 30)
    return {j: weight(t) for t, j in enumerate(ids)}


def _program_cells():
    return ([c for n in range(2, 6) for c in bruhat_pairs(n)]
            + NEGATIVE_SEGMENT_CELLS
            + random.Random(28).sample(bruhat_pairs(6), 300)
            + [(identity(n), longest_element(n)) for n in (7, 8)])


# the draws, one per semiring, on which the reader is compared as well
READ_DRAWS = ("benchmark-like", "mixed-sign tropical")
ALTERNATING = "alternating denominators"


def _unit_signs_taken(n, raw):
    """The signed mask-indexed classical list ``raw`` with each size block
    multiplied by the sign of its unit, its lexicographically first
    nonzero value."""
    out = list(raw)
    for block, found in zip(index_masks(n), raw_blocks(n, raw, 0)):
        if found and found[0][1] < 0:
            for _, S in block:
                out[S] = -out[S]
    return out


def test_program_matches_mask_sweep():
    """``(raw, L)`` from the compiled program, expanded to the
    mask-indexed list, against the signed mask-event sweep: tropically
    identical, and classically identical once each size block of the
    reference is multiplied by its unit's sign, with every raw value
    positive, since every collection into a size has one sign. On every
    S2-S5 cell, the negative-segment cells, 300 seeded S6 cells and the
    S7 and S8 top cells, on one draw of every family of
    ``_reference_draws``, of the Mersenne draws (the primes repeat past
    the seventh weight) and of ``_alternating_weights``. On the ``READ_DRAWS``, the program's reader
    (the end of ``wiring._run_sweep``, through ``phi`` and ``trop_phi``)
    lists the same blocks, indices and values in the same order, as the
    mask-indexed read of that sweep.

    This guards the end-scaled classical kernel, which starts every state
    at the product of the edges' denominators and divides by each edge's
    q per move instead of rescaling every state reached: its raw ints
    must be those of the rescaling sweep up to the unit's sign, not just
    proportional to them, at steps with q = 1 and q != 1 in any order,
    and where the signed reference has negative states (the alternating
    family must meet some)."""
    rng, alternating = random.Random(28), random.Random(31)
    negative = 0
    for v, w in _program_cells():
        d = build_diagram(v, w)
        ids, events = d.weight_ids(), _mask_events(d)
        primes = list(itertools.islice(itertools.cycle(MERSENNE), len(ids)))
        draws = list(_reference_draws(ids, rng, MERSENNE))
        draws += [(name, a, False)
                  for name, a in _classical_draws(ids, rng, primes)]
        draws += [(name, x, True)
                  for name, x in _tropical_draws(ids, rng, primes)]
        draws.append((ALTERNATING, _alternating_weights(ids, alternating),
                      False))
        for name, x, tropical in draws:
            p = (trop_phi if tropical else phi)(v, w, x)
            exact = {j: t.value for j, t in x.items()} if tropical else x
            want = _mask_sweep(d, events, exact, not tropical)
            if name == ALTERNATING:
                negative += min(want[0]) < 0
            if not tropical:
                want = _unit_signs_taken(d.n, want[0]), want[1]
                assert all(c > 0 for _, values in p._raw[0] for c in values), \
                    (v, w, name)
            assert raw_sweep(p) == want, (v, w, name)
            if name in READ_DRAWS:
                assert [list(zip(*block)) for block in p._raw[0]] == \
                    list(raw_blocks(d.n, want[0], None if tropical else 0)), \
                    (v, w, name)
    assert negative, "no alternating draw reached a negative state"


def _cell_support_reference(v, w):
    """``cell_support`` as it read the mask sweep at all-zero weights."""
    n, d = len(v), build_diagram(v, w)
    raw, _ = _mask_sweep(d, _mask_events(d),
                         dict.fromkeys(d.weight_ids(), Fraction(0)), False)
    return SupportVector(n, {k: frozenset(I for I, _ in found) for k, found
                             in enumerate(raw_blocks(n, raw, None), start=1)})


def test_cell_support_matches_the_zero_weight_sweep():
    """Every S3-S5 cell, 300 seeded S6 cells and the S7 top cell, down to
    each frozenset's iteration order."""
    cells = ([c for n in (3, 4, 5) for c in bruhat_pairs(n)]
             + random.Random(29).sample(bruhat_pairs(6), 300)
             + [(identity(7), longest_element(7))])
    for v, w in cells:
        assert repr(cell_support(v, w)) == repr(_cell_support_reference(v, w)), \
            (v, w)
