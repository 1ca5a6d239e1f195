"""
Exact scalar arithmetic: rationals and the tropical semiring Q u {inf}
(min-plus), with their text forms. Laurent monomials are the oracle's
(``oracle.LaurentMonomial``, a path collection's signed weight); the
tests' check of the inverse map (``tests/oracle_reference.py``) reuses
them.

All scalars are `fractions.Fraction`; no floats anywhere.

>>> trop_to_str(Trop.of(3) * Trop.of(2))
'5'
"""

__all__ = [
    "Trop", "TROP_INF",
    "rat_from_str", "rat_to_str", "trop_from_str", "trop_to_str",
]

from fractions import Fraction


def rat_from_str(s: str) -> Fraction:
    """Parse "p/q" or "p" (a decimal such as "1.5" too). Exponent notation
    is rejected: ``Fraction`` would expand "1e10000000" to an integer of
    ten million digits.

    >>> rat_from_str("1e3")
    Traceback (most recent call last):
    ...
    ValueError: exponent notation is not accepted: '1e3'
    """
    s = s.strip()
    if "e" in s or "E" in s:
        raise ValueError(f"exponent notation is not accepted: {s!r}")
    return Fraction(s)


def rat_to_str(x: Fraction) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    return str(x)


# ---------------------------------------------------------------------------
# Tropical semiring (min, +)
# ---------------------------------------------------------------------------

class Trop:
    """An element of the semiring Q u {inf}; ``value is None`` encodes
    +infinity, the tropical zero, and Trop(0) is the tropical one.

    ``+`` is min, ``*`` and ``/`` add and subtract values, and ``**`` is
    scaling, so code written with ``+ * / **`` runs on Fraction and on Trop
    alike. Comparisons place inf above every rational.

    >>> Trop.of(3) + TROP_INF
    Trop(value=Fraction(3, 1))
    >>> trop_to_str(Trop.of(3) ** -2 / Trop.of(1))
    '-7'
    """
    __slots__ = ("value",)
    value: Fraction | None

    def __init__(self, value: Fraction | None) -> None:
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"Trop(value={self.value!r})"

    def __hash__(self) -> int:
        return hash((self.value,))

    def __reduce__(self):
        return (Trop, (self.value,))

    @staticmethod
    def of(x) -> "Trop":
        return Trop(Fraction(x))

    @property
    def is_inf(self) -> bool:
        return self.value is None

    def __add__(self, other: "Trop") -> "Trop":
        return other if other < self else self

    def __mul__(self, other: "Trop") -> "Trop":
        if self.is_inf or other.is_inf:
            return TROP_INF
        return Trop(self.value + other.value)

    def __truediv__(self, other: "Trop") -> "Trop":
        """Tropical division = value subtraction; dividing by inf is an error."""
        if other.is_inf:
            raise ZeroDivisionError("tropical division by inf")
        if self.is_inf:
            return TROP_INF
        return Trop(self.value - other.value)

    def scale(self, k: int) -> "Trop":
        """k-fold tropical power (k * value); inf**0 = 0, the tropical unit."""
        if k == 1:
            return self
        if k == 0:
            return Trop(Fraction(0))
        if self.is_inf:
            if k < 0:
                raise ZeroDivisionError("inf with negative exponent")
            return TROP_INF
        return Trop(k * self.value)

    __pow__ = scale

    def _key(self):
        return (1,) if self.is_inf else (0, self.value)

    def __eq__(self, other) -> bool:
        # inf is never compared with a Fraction, which is slow
        if not isinstance(other, Trop):
            return NotImplemented
        a, b = self.value, other.value
        return a is b or (a is not None and b is not None and a == b)

    def __lt__(self, other: "Trop") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Trop") -> bool:
        return self._key() <= other._key()


TROP_INF = Trop(None)


def trop_from_str(s: str) -> Trop:
    s = s.strip()
    return TROP_INF if s == "inf" else Trop(rat_from_str(s))


def trop_to_str(x: Trop) -> str:
    return "inf" if x.is_inf else str(x.value)


if __name__ == "__main__":
    import doctest
    doctest.testmod()
