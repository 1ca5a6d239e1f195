"""
Independent brute-force verifiers: supports read off Bruhat intervals
enumerated as subword products, a subword-search Bruhat test, a
position-by-position check of positive distinguished subexpressions, cofactor
determinants, the cell matrix and its top-rows minors, random flags,
sampled elements of the quadratic ideal and their tropical evaluation,
and tropical coordinates by listing every path collection. These
deliberately avoid the library's fast code paths so they can serve as
oracles in tests.
flag_matroid_check is the library's own brute-force predicate (it lives in
`extremal`), re-exported here.
"""

__all__ = [
    "determinant_cofactor", "reduced_word_oracle", "bruhat_leq_oracle",
    "support_oracle", "flag_matroid_check", "random_flag",
    "generic_weights", "ideal_element_sample", "trop_eval_poly_terms",
    "trop_phi_enumerated", "mr_matrix", "phi_minors", "normalize_blocks",
    "is_positive_distinguished",
]

import random
from fractions import Fraction
from functools import lru_cache

from .algebra import TROP_INF, Trop
from .extremal import flag_matroid_check
from .perms import (
    Perm, Subexpression, identity, inverse, left_mult_s, right_mult_s,
)
from .plucker import (
    Index, PlueckerVector, TropPlueckerVector, all_proper_indices,
    generate_relations, phi,
)
from .wiring import build_diagram, enumerate_path_collections

_MAX_N = 7


def determinant_cofactor(m) -> Fraction:
    """Naive cofactor-expansion determinant (exponential; oracle only)."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for c in range(n):
        if m[0][c] == 0:
            continue
        minor = [row[:c] + row[c + 1:] for row in m[1:]]
        total += (-1) ** c * Fraction(m[0][c]) * determinant_cofactor(minor)
    return total


def reduced_word_oracle(w: Perm) -> tuple[int, ...]:
    """A reduced word for w, built by stripping right descents."""
    letters: list[int] = []
    u = w
    n = len(w)
    while u != identity(n):
        i = next(i for i in range(1, n) if u[i - 1] > u[i])
        u = right_mult_s(u, i)
        letters.append(i)
    return tuple(reversed(letters))


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


def _subword_products(word: tuple[int, ...], n: int) -> set[Perm]:
    """Products of all subwords of ``word``; for a reduced word of u this
    is the lower interval [e, u] (subword property)."""
    products = {identity(n)}
    for i in word:
        products |= {right_mult_s(u, i) for u in products}
    return products


@lru_cache(maxsize=16)
def _interval_oracle(lo: Perm, hi: Perm) -> frozenset[Perm]:
    """[lo, hi] as [e, hi] cut by the upper set of lo, which reversing the
    one-line notation (right multiplication by w0, an order-reversing
    bijection) maps onto [e, lo w0]."""
    n = len(lo)
    below_hi = _subword_products(reduced_word_oracle(hi), n)
    lo_w0 = Perm(lo[::-1])
    above_lo = {Perm(u[::-1])
                for u in _subword_products(reduced_word_oracle(lo_w0), n)}
    return frozenset(below_hi & above_lo)


def support_oracle(v: Perm, w: Perm, k: int) -> set[Index]:
    """{sorted {u(1..k)} : v^-1 <= u <= w^-1}, the interval enumerated
    once per cell from subword products of two reduced words."""
    n = len(v)
    if n > _MAX_N:
        raise ValueError(f"support_oracle refuses n > {_MAX_N}")
    interval = _interval_oracle(inverse(v), inverse(w))
    if not interval:
        raise ValueError("v is not <= w in Bruhat order")
    return {tuple(sorted(u[:k])) for u in interval}


def _top_minors(m) -> PlueckerVector:
    """P_I = det of the topmost |I| rows of m in columns I (not normalized)."""
    coords: dict[Index, Fraction] = {}
    for I in all_proper_indices(len(m)):
        minor = [[m[r][c - 1] for c in I] for r in range(len(I))]
        val = determinant_cofactor(minor)
        if val != 0:
            coords[I] = val
    return PlueckerVector(len(m), coords)


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


def mr_matrix(v: Perm, w: Perm, a) -> list[list[Fraction]]:
    """The cell matrix: the product, along w's distinguished word, of the
    upper-triangular weight factors x_i(a_j) and the signed crossing
    factors at v's positions, each applied to the columns of the product.
    """
    d = build_diagram(v, w)
    if set(a) != set(d.weight_ids()):
        raise ValueError(f"expected weight ids {list(d.weight_ids())}, "
                         f"got {sorted(a)}")
    if any(Fraction(x) <= 0 for x in a.values()):
        raise ValueError("weights must be strictly positive")
    n = d.n
    crossings = set(d.v_positions)
    m = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for j, i in enumerate(d.w_word.letters, start=1):
        for row in m:
            if j in crossings:      # s_i-dot: columns (i, i+1) <- (-(i+1), i)
                row[i - 1], row[i] = -row[i], row[i - 1]
            else:                   # x_i(a_j): column i+1 += a_j * column i
                row[i] += Fraction(a[j]) * row[i - 1]
    return m


def normalize_blocks(p):
    """p with each size block times one / its lexicographically least
    supported coordinate, by semiring arithmetic on ``p.coords``, a block
    whose unit is already one copied as it is: a normalization apart from
    the integer view that the library's ``canonicalize`` reads."""
    src, one, coords = p.coords, p.one, {}
    for block in p.support().values():
        if block:
            unit = src[min(block)]
            inv = one / unit
            for I in block:
                coords[I] = src[I] if unit == one else src[I] * inv
    return type(p)(p.n, coords)


def phi_minors(v: Perm, w: Perm, a) -> PlueckerVector:
    """phi as the top-rows minors of the cell matrix, by cofactor
    expansion, then per-size normalization (``normalize_blocks``)."""
    return normalize_blocks(_top_minors(mr_matrix(v, w, a)))


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
           61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]


def generic_weights(v: Perm, w: Perm, seed: int) -> dict[int, Fraction]:
    """Positive weights with distinct prime numerators; two independent
    draws must produce the same support, otherwise both are resampled
    (protects against accidental coordinate collisions to zero).
    """
    ids = build_diagram(v, w).weight_ids()
    rng = random.Random(seed)

    def draw() -> dict[int, Fraction]:
        primes = rng.sample(_PRIMES, len(ids))
        return {j: Fraction(p, rng.randint(1, 7))
                for j, p in zip(ids, primes)}

    for _ in range(50):
        a1, a2 = draw(), draw()
        s1 = {I for I, x in phi(v, w, a1).coords.items() if x != 0}
        s2 = {I for I, x in phi(v, w, a2).coords.items() if x != 0}
        if s1 == s2:
            return a1
    raise RuntimeError("could not stabilize a generic support in 50 draws")


def trop_phi_enumerated(v: Perm, w: Perm, x) -> TropPlueckerVector:
    """trop_phi by listing every non-intersecting path collection
    {1'..|I|'} -> I and taking the least total edge weight."""
    d = build_diagram(v, w)
    if set(x) != set(d.weight_ids()) or any(t.is_inf for t in x.values()):
        raise ValueError("expected one finite weight per vertical edge")
    coords: dict[Index, Trop] = {}
    for I in all_proper_indices(d.n):
        best = TROP_INF
        for coll in enumerate_path_collections(d, range(1, len(I) + 1), I):
            total = Trop(Fraction(0))
            for p in coll.paths:
                for e in p.edges:
                    total = total * x[e.weight_id]
            best = best + total
        if not best.is_inf:
            coords[I] = best
    return normalize_blocks(TropPlueckerVector(d.n, coords))


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
    value) pairs; exponents are nonnegative.
    """
    out = []
    for coeff, mono in poly:
        val = p.one
        for I, e in mono.items():
            val = val * p.coord(I) ** e
        out.append((coeff, val))
    return out
