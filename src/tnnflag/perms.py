"""
Symmetric-group arithmetic: one-line permutations, Bruhat order, reduced
words, and positive distinguished subexpressions inside the canonical
longest word.

Permutations are 1-indexed tuples in one-line notation, so ``(4, 2, 1, 3)``
is the map 1 -> 4, 2 -> 2, 3 -> 1, 4 -> 3.

>>> length((4, 2, 1, 3))
4
>>> bruhat_leq((1, 3, 2, 4), (4, 2, 1, 3))
True
>>> canonical_w0_word(3)
Word(n=3, letters=(1, 2, 1), runs=(1, 1, 2))
"""

__all__ = [
    "Perm", "Word", "Subexpression",
    "identity", "inverse", "length", "is_perm",
    "left_mult_s", "right_mult_s", "longest_element",
    "perm_from_str", "perm_to_str", "all_perms",
    "gale_leq", "bruhat_leq", "bruhat_above", "bruhat_pairs",
    "canonical_w0_word", "positive_distinguished_subexpression",
]

import itertools
from functools import lru_cache
from typing import Iterator, NamedTuple, NewType

# a permutation of {1..n} in one-line notation
Perm = NewType("Perm", tuple[int, ...])


def identity(n: int) -> Perm:
    return Perm(tuple(range(1, n + 1)))


def is_perm(w: tuple[int, ...]) -> bool:
    """
    >>> is_perm((2, 1, 3)), is_perm((1, 1, 2))
    (True, False)
    """
    return sorted(w) == list(range(1, len(w) + 1))


def inverse(w: Perm) -> Perm:
    """
    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    inv = [0] * len(w)
    for i, x in enumerate(w, start=1):
        inv[x - 1] = i
    return Perm(tuple(inv))


def length(w: Perm) -> int:
    """Number of inversions of the one-line notation."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def left_mult_s(i: int, w: Perm) -> Perm:
    """s_i * w: swap the *values* i and i+1 in the one-line notation."""
    return Perm(tuple(i + 1 if x == i else i if x == i + 1 else x for x in w))


def right_mult_s(w: Perm, i: int) -> Perm:
    """w * s_i: swap the entries at *positions* i and i+1."""
    lst = list(w)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return Perm(tuple(lst))


def longest_element(n: int) -> Perm:
    return Perm(tuple(range(n, 0, -1)))


def perm_to_str(w: Perm) -> str:
    """Comma-free digits for n <= 9 ("4213"), comma-separated beyond."""
    if len(w) <= 9:
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)


def perm_from_str(s: str) -> Perm:
    """Parse "4,2,1,3" or (for n <= 9) the comma-free form "4213"."""
    s = s.strip()
    parts = s.split(",") if "," in s else list(s)
    try:
        w = tuple(int(x) for x in parts)
    except ValueError as exc:
        raise ValueError(f"not a permutation: {s!r}") from exc
    if not is_perm(w):
        raise ValueError(f"not a permutation: {s!r}")
    return Perm(w)


def all_perms(n: int) -> Iterator[Perm]:
    for w in itertools.permutations(range(1, n + 1)):
        yield Perm(w)


# ---------------------------------------------------------------------------
# Orders
# ---------------------------------------------------------------------------

def gale_leq(I: tuple[int, ...], J: tuple[int, ...]) -> bool:
    """Componentwise order on equal-size subsets, given as sorted tuples
    (an ``Index``); the tuples are not re-sorted.

    >>> gale_leq((1, 3), (2, 3)), gale_leq((1, 4), (2, 3))
    (True, False)
    """
    if len(I) != len(J):
        raise ValueError("size mismatch")
    return all(i <= j for i, j in zip(I, J))


def bruhat_leq(v: Perm, w: Perm) -> bool:
    """Tableau criterion: {v(1..k)} <= {w(1..k)} in Gale order for all k.

    >>> bruhat_leq((1, 3, 2, 4), (4, 2, 1, 3))
    True
    """
    if len(v) != len(w):
        raise ValueError("mismatched n")
    return all(gale_leq(sorted(v[:k]), sorted(w[:k])) for k in range(1, len(v)))


def bruhat_above(n: int) -> tuple[list[Perm], list[int]]:
    """The permutations of S_n in ``all_perms`` order, and for each v the
    bit mask of the w >= v (bit i for the i-th permutation), without a
    test per pair: by the tableau criterion the w above v are those whose
    k-prefix set lies Gale-above v's for every k, and the permutations
    whose k-prefix set lies Gale-above a given k-set form one mask."""
    perms = list(all_perms(n))
    above = [(1 << len(perms)) - 1] * len(perms)
    for k in range(1, n):
        prefixes = [tuple(sorted(u[:k])) for u in perms]
        with_prefix: dict[tuple[int, ...], int] = {}
        for i, A in enumerate(prefixes):
            with_prefix[A] = with_prefix.get(A, 0) | 1 << i
        # the classes are disjoint, so a sum of their masks is their union
        gale_above = {A: sum(m for B, m in with_prefix.items() if gale_leq(A, B))
                      for A in with_prefix}
        above = [m & gale_above[A] for m, A in zip(above, prefixes)]
    return perms, above


def bruhat_pairs(n: int) -> list[tuple[Perm, Perm]]:
    """Every pair v <= w of S_n, v and then w in ``all_perms`` order.

    >>> bruhat_pairs(2)
    [((1, 2), (1, 2)), ((1, 2), (2, 1)), ((2, 1), (2, 1))]
    """
    perms, above = bruhat_above(n)
    return [(v, perms[i]) for v, m in zip(perms, above)
            for i, bit in enumerate(bin(m)[:1:-1]) if bit == "1"]


# ---------------------------------------------------------------------------
# Words and positive distinguished subexpressions
# ---------------------------------------------------------------------------

class Word(NamedTuple):
    """A word in the generators s_i, with run annotations when the word is
    (a subword of) the canonical longest word (s_1..s_{n-1})(s_1..s_{n-2})...(s_1).
    """
    n: int
    letters: tuple[int, ...]
    runs: tuple[int, ...] | None = None

    def __len__(self) -> int:
        return len(self.letters)


def _make_word(cls, iterable) -> Word:
    """``Word._make``, counting the fields with ``tuple.__len__``: the
    generated one calls ``len``, which counts letters here."""
    result = tuple.__new__(cls, iterable)
    if tuple.__len__(result) != len(cls._fields):
        raise TypeError(f"Expected {len(cls._fields)} arguments, "
                        f"got {tuple.__len__(result)}")
    return result


# NamedTuple forbids defining _make in the class body; _replace calls it
Word._make = classmethod(_make_word)


class Subexpression(NamedTuple):
    """A choice of positions (1-based, strictly increasing) inside a word."""
    parent: Word
    positions: tuple[int, ...]

    def letters(self) -> tuple[int, ...]:
        return tuple(self.parent.letters[p - 1] for p in self.positions)

    def runs(self) -> tuple[int, ...] | None:
        if self.parent.runs is None:
            return None
        return tuple(self.parent.runs[p - 1] for p in self.positions)


@lru_cache(maxsize=16)
def canonical_w0_word(n: int) -> Word:
    """The run-annotated word (s_1...s_{n-1})(s_1...s_{n-2})...(s_1),
    built once per n (for the 16 latest n).

    >>> canonical_w0_word(4).letters
    (1, 2, 3, 1, 2, 1)
    """
    letters: list[int] = []
    runs: list[int] = []
    for r in range(1, n):
        for i in range(1, n - r + 1):
            letters.append(i)
            runs.append(r)
    return Word(n, tuple(letters), tuple(runs))


def positive_distinguished_subexpression(target: Perm, parent: Word) -> Subexpression:
    """The unique leftmost reduced subexpression for ``target`` in ``parent``.

    Scans left to right keeping the still-unmatched piece of the target
    as the position of each value; a position is chosen exactly when its
    letter shortens that piece on the left, which swaps two positions.

    >>> positive_distinguished_subexpression(
    ...     (3, 2, 1, 4), canonical_w0_word(4)).positions
    (1, 2, 4)
    """
    if len(target) != parent.n:
        raise ValueError("target is not below the parent word in Bruhat order")
    at = [0, *inverse(target)]          # value -> its position, 1-based
    positions: list[int] = []
    for p, i in enumerate(parent.letters, start=1):
        # s_i * remaining is shorter iff value i appears after value i+1
        if at[i] > at[i + 1]:
            positions.append(p)
            at[i], at[i + 1] = at[i + 1], at[i]
    if at != list(range(parent.n + 1)):
        raise ValueError("target is not below the parent word in Bruhat order")
    return Subexpression(parent, tuple(positions))


if __name__ == "__main__":
    import doctest
    doctest.testmod()
