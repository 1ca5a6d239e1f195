"""Brute-force references that only the tests read: words evaluated letter
by letter (``perm_from_word``), a position-by-position check of positive
distinguished subexpressions, a subword-search Bruhat test, random flags,
the inverse map as Laurent monomials in the coordinates
(``psi_monomials``), the path-sum matrix (the other route to
``oracle.mr_matrix``), one incidence relation evaluated at a vector,
classically or tropically, and sampled elements of the quadratic ideal
with their tropical evaluation. ``verify`` runs none of them, so they
live here rather than in ``tnnflag.oracle``, whose cofactor determinant,
reduced words, top-rows minors and ``LaurentMonomial`` they build on."""

import math
import random
from fractions import Fraction
from typing import Mapping

from tnnflag.algebra import TROP_INF, Trop
from tnnflag.oracle import (
    _MAX_N, LaurentMonomial, _top_minors, determinant_cofactor,
    reduced_word_oracle,
)
from tnnflag.perms import Perm, Subexpression, identity, left_mult_s, right_mult_s
from tnnflag.plucker import (
    Index, IncidenceRelation, PlueckerVector, TropPlueckerVector,
    _term_values, _terms_verdict, all_proper_indices, generate_relations,
)
from tnnflag.wiring import NegativeSegment, WiringDiagram

from walk_reference import generators


def perm_from_word(n: int, letters: tuple[int, ...]) -> Perm:
    """Evaluate a word in the generators s_1..s_{n-1} left to right."""
    w = identity(n)
    for i in letters:
        w = right_mult_s(w, i)
    return w


def is_positive_distinguished(sub: Subexpression, target: Perm) -> bool:
    """Position-by-position recheck of the defining condition: whenever a
    letter shortens the unmatched piece, that position must be chosen.
    """
    chosen = set(sub.positions)
    remaining = target
    for p, i in enumerate(sub.parent.letters, start=1):
        shortens = remaining.index(i) > remaining.index(i + 1)
        if shortens != (p in chosen):
            return False
        if shortens:
            remaining = left_mult_s(i, remaining)
    return remaining == identity(sub.parent.n)


def bruhat_leq_oracle(v: Perm, w: Perm) -> bool:
    """Subword property: v <= w iff some subword of a reduced word for w is
    a reduced word for v. Dynamic program consuming the word left to right.
    """
    word = reduced_word_oracle(w)
    n = len(v)
    memo: dict[tuple[int, Perm], bool] = {}

    def reachable(pos: int, target: Perm) -> bool:
        if target == identity(n):
            return True
        if pos == len(word):
            return False
        key = (pos, target)
        if key not in memo:
            i = word[pos]
            ok = reachable(pos + 1, target)
            # letter usable iff it shortens the target from the left
            if not ok and target.index(i) > target.index(i + 1):
                ok = reachable(pos + 1, left_mult_s(i, target))
            memo[key] = ok
        return memo[key]

    return reachable(0, v)


def random_flag(n: int, seed: int) -> PlueckerVector:
    """Pluecker vector of a random invertible integer matrix (not normalized,
    not necessarily nonnegative); minors by the cofactor oracle."""
    if n > _MAX_N:
        raise ValueError(f"random_flag refuses n > {_MAX_N}")
    rng = random.Random(seed)
    while True:
        m = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
        if determinant_cofactor(m) != 0:
            break
    return _top_minors(m)


def psi_monomials(v: Perm, w: Perm) -> dict[int, LaurentMonomial]:
    """Each cell weight as a Laurent monomial in the canonical coordinates
    (each size's unit, the coordinate at v^-1(1..k), is 1) at the
    independent generating indices: ``psi``'s walk over the variables
    P_I themselves, on the frozen walk's generators."""
    weights = {}
    for I, ids, new, _ in generators(v, w):
        if new is not None:
            x = LaurentMonomial(1, {I: 1})
            for j in ids:
                if j != new:
                    x = x / weights[j]
            weights[new] = x
    return weights


def path_sum_matrix(d: WiringDiagram, a: Mapping[int, Fraction]) -> list[list[Fraction]]:
    """N[i][j] = signed weighted sum over paths from source i' to sink j,
    in one walk over the edges and -1 segments in key order, a segment
    before an edge of the same key. Column j holds, per source, the sum
    over the partial paths that sit on strand j: a segment negates its
    strand's column, and an edge adds its weight times its lower strand's
    column to its upper one's, for the paths that climb it."""
    n = d.n
    out = [[Fraction(int(d.strand_of_label(i) == j)) for j in range(1, n + 1)]
           for i in range(1, n + 1)]
    for ev in sorted([*d.neg_segments, *d.edges], key=lambda ev: ev.key):
        for row in out:
            if isinstance(ev, NegativeSegment):
                row[ev.strand - 1] = -row[ev.strand - 1]
            else:
                row[ev.upper - 1] += Fraction(a[ev.weight_id]) * row[ev.lower - 1]
    return out


def check_relation(rel: IncidenceRelation, p: PlueckerVector) -> Fraction:
    """Exact value of the relation at p; 0 iff satisfied."""
    return sum((Fraction(sign) * p.coord(left) * p.coord(right)
                for sign, left, right in rel.terms), Fraction(0))


def trop_terms_verdict(terms: list[tuple[int, Trop]]) -> tuple[bool, bool]:
    """(solution, positive solution) for a list of (coefficient sign, Trop)
    terms; see ``plucker._terms_verdict``."""
    return _terms_verdict([(c, t.value) for c, t in terms])


def trop_check_relation(rel: IncidenceRelation, p: TropPlueckerVector,
                        positive: bool) -> bool:
    solution, pos = _terms_verdict(_term_values(rel, lambda I: p.coord(I).value))
    return pos if positive else solution


def ideal_element_sample(n: int, count: int, seed: int,
                         ) -> list[list[tuple[int, dict[Index, int]]]]:
    """Random small combinations sum_m q_m * gen_m of incidence relations,
    with monomial multipliers q_m; each returned polynomial is a list of
    (integer coefficient, exponent map) terms with like terms merged.
    """
    if n > 4:
        raise ValueError("ideal_element_sample refuses n > 4")
    gens = generate_relations(n)
    indices = list(all_proper_indices(n))
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        acc: dict[frozenset, int] = {}
        for _ in range(rng.randint(1, 3)):
            gen = rng.choice(gens)
            mult_coeff = rng.choice([-3, -2, -1, 1, 2, 3])
            mult_vars = rng.sample(indices, rng.randint(0, 2))
            for sign, left, right in gen.terms:
                mono: dict[Index, int] = {}
                for var in (left, right, *mult_vars):
                    mono[var] = mono.get(var, 0) + 1
                key = frozenset(mono.items())
                acc[key] = acc.get(key, 0) + mult_coeff * sign
        poly = [(c, dict(key)) for key, c in acc.items() if c != 0]
        out.append(poly)
    return out


def trop_eval_poly_terms(poly: list[tuple[int, dict[Index, int]]],
                         p: TropPlueckerVector) -> list[tuple[int, Trop]]:
    """Evaluate a polynomial given as (coefficient, monomial exponent map)
    terms, such as those of ``ideal_element_sample``, into (sign, tropical
    value) pairs; exponents are nonnegative, and the monomials' keys are
    indices, sorted tuples. A term's value is the sum of e times the
    coordinate's value over its factors, infinite when a factor with
    e > 0 is: summed on the finite values scaled to ints by the lcm L of
    their denominators, and divided by L once.
    """
    finite = {I: x.value for I, x in p.coords.items() if x.value is not None}
    L = math.lcm(*(x.denominator for x in finite.values()))
    ints = {I: x.numerator * (L // x.denominator) for I, x in finite.items()}
    out = []
    for coeff, mono in poly:
        xs = [(e, ints.get(I)) for I, e in mono.items() if e]
        out.append((coeff, TROP_INF if any(x is None for _, x in xs)
                    else Trop(Fraction(sum(e * x for e, x in xs), L))))
    return out
