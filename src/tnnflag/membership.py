"""
Inverting the cell parameterization and deciding membership: cell
identification from a support pattern (the support layer, ``extremal``,
reads the cell off the chain ends), the inverse map as one run of the
cell's compiled walk (the cached wiring diagram's ``walk``, which
``wiring._compile_walk`` compiles with it), classical or min-plus,
which reads each generating coordinate by its position in the cell's
size block (the tests' ``psi_monomials`` walks a frozen copy of the
generators on Laurent monomials to check it), certificate-producing
decision procedures for the nonnegative flag variety and the nonnegative
flag Dressian, and three-term propagation from the values at the cell's
extremal indices, which the same program lists. All of them go from
values to a point one way: the walk solves the weights and the sweep of
``phi``/``trop_phi`` gives the point. The source paper's
relation-by-relation solver is the oracle's independent reference
(``oracle._propagate``), and so are the generators built from the listed
path collections (``oracle.generators``). Each decider reads the
vector's integer view and tries that reconstruction; on any other
outcome it checks the index keys once, then names the rejection in a
fixed order and builds only the witness it reports.

>>> from tnnflag.perms import perm_from_str
>>> from fractions import Fraction
>>> from tnnflag.plucker import phi
>>> v, w = perm_from_str("1324"), perm_from_str("4213")
>>> p = phi(v, w, {1: Fraction(2), 2: Fraction(3), 4: Fraction(5)})
>>> cert = decide_tnn(p)
>>> cert.verdict, cert.cell == (v, w)
('member', True)
"""

__all__ = [
    "CellCertificate", "identify_cell", "psi", "trop_psi",
    "decide_tnn", "decide_trop",
    "propagate_three_term", "trop_propagate_three_term",
]

from fractions import Fraction
from math import gcd
from typing import Mapping

from .algebra import Trop, rat_to_str, trop_to_str
from .perms import Perm, gale_leq, perm_to_str
from .plucker import (
    Index, PlueckerVector, TropPlueckerVector, _first_violated,
    _relation_json, generate_relations, index_to_str, phi, trop_phi,
)
from .extremal import _lex_chain_cell, flag_matroid_check, s_vw
from .wiring import _run_sweep, build_diagram

_setattr = object.__setattr__       # past CellCertificate's refusal


class CellCertificate:
    """A decider's verdict: ``member`` with the cell (v, w) and its
    weights, or ``non-member`` with the witness dict of the check that
    rejected. It behaves as a record of the fields ``_fields``: it is
    built from them, iterates over them, compares by them (with another
    certificate), shows them in ``repr``, is pickled as them and refuses
    assignment. A member certificate from a decider keeps the weights as
    ``_solve`` left them, reduced int pairs (p, q) classically and ints
    L times the weights tropically, and makes their Fractions or Trops
    (``_weights``) the first time ``weights`` is read; ``to_json_dict``
    renders the ints as they are, with the text of ``rat_to_str`` and
    ``trop_to_str``."""

    __slots__ = ("verdict", "cell", "_values", "witness", "_ints")
    _fields = ("verdict", "cell", "weights", "witness")

    def __init__(self, verdict, cell=None, weights=None, witness=None, *, _ints=None):
        _setattr(self, "verdict", verdict)
        _setattr(self, "cell", cell)
        _setattr(self, "_values", weights)
        _setattr(self, "witness", witness)
        _setattr(self, "_ints", _ints)

    @property
    def weights(self) -> dict[int, object] | None:    # Fraction or Trop values
        if self._values is None and self._ints is not None:
            _setattr(self, "_values", _weights(*self._ints))
        return self._values

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot set {name!r}: CellCertificate is immutable")

    __delattr__ = __setattr__

    def __iter__(self):
        return iter((self.verdict, self.cell, self.weights, self.witness))

    def __eq__(self, other):
        return type(other) is CellCertificate and tuple(self) == tuple(other)

    def __reduce__(self):
        return CellCertificate, tuple(self)

    def __repr__(self) -> str:
        return f"CellCertificate({', '.join(map('{}={!r}'.format, self._fields, self))})"

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.cell is not None:
            out["v"], out["w"] = map(perm_to_str, self.cell)
        if self._ints is not None:
            a, L, signed = self._ints
            out["weights"] = {str(j): _ratio(*x) if signed else _ratio(x, L)
                              for j, x in sorted(a.items())}
        elif self._values is not None:
            out["weights"] = {
                str(j): (trop_to_str(x) if isinstance(x, Trop) else rat_to_str(x))
                for j, x in sorted(self._values.items())}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _non_member(witness: dict) -> CellCertificate:
    return CellCertificate("non-member", witness=witness)


# ---------------------------------------------------------------------------
# Cell identification
# ---------------------------------------------------------------------------

def identify_cell(support: Mapping[int, set], n: int) -> tuple[Perm, Perm]:
    """Read v^-1 off the Gale-minimal chain increments and w^-1 off the
    Gale-maximal chain; raises ValueError when the chains do not exist,
    are not nested, or v is not <= w (all signal non-membership).

    Each basis of sizes 1..n-1 is read in any order, and one with an
    entry that is not an int (1.0 and True equal ints without being
    them) raises ValueError("bad index ..."), as the deciders do for the
    same key; so ``extremal._lex_chain_cell``, whose cache must not
    answer for such a key, only sees ints. The all-pairs Gale check is
    this function's own; the rest is ``_lex_chain_cell``, which the
    deciders call alone: a member's support is a flag matroid, whose
    lexicographic extremes are its Gale extremes. Only ``decide_trop``
    runs this, to name a rejection that no three-term relation names.
    """
    for k in range(1, n):
        for B in support.get(k, ()):
            if not {*map(type, B)} <= {int}:
                raise ValueError(f"bad index {B!r} for n={n}")
    blocks = [sorted({tuple(sorted(B)) for B in support.get(k, ())})
              for k in range(1, n)]
    for k, bases in enumerate(blocks, start=1):
        if not bases:
            break                       # _lex_chain_cell names it
        lo, hi = bases[0], bases[-1]
        if not all(gale_leq(lo, B) and gale_leq(B, hi) for B in bases):
            raise ValueError(f"size {k} has no Gale extremes")
    return _lex_chain_cell(blocks, n)


# ---------------------------------------------------------------------------
# The inverse map
# ---------------------------------------------------------------------------

def psi(v: Perm, w: Perm, p: PlueckerVector) -> dict[int, Fraction]:
    """Recover the cell weights of the point p: ``_solve`` on p's
    ``_int_view`` blocks, its reduced pairs made Fractions. Each
    coordinate at an independent generating index is read against its
    size's unit, the coordinate at v^-1(1..k), and must be positive once
    divided by it, or a ValueError names the first that is not. So the
    weights are those of the projective point, whatever block scaling
    represents it, and a vector from ``phi`` is not rendered. A p that is
    not a classical vector of the cell's n raises ValueError.

    >>> from tnnflag.perms import perm_from_str
    >>> from tnnflag.plucker import phi
    >>> v, w = perm_from_str("1324"), perm_from_str("4213")
    >>> p = phi(v, w, {1: 2, 2: 3, 4: 5})
    >>> scaled = PlueckerVector(4, {I: x * (1 + len(I)) for I, x in p.coords.items()})
    >>> psi(v, w, scaled) == psi(v, w, p) == {1: 2, 2: 3, 4: 5}
    True
    """
    return _solved(v, w, p, True)


def trop_psi(v: Perm, w: Perm, p: TropPlueckerVector) -> dict[int, Trop]:
    """The min-plus ``psi``: ``_solve`` on p's ``_int_view`` blocks, which
    hold Q = L (p - p_unit); each coordinate at an independent generating
    index is read against its size's unit and must be finite. The solved
    ints are L times the cell weights, so each is rendered divided by L.
    A p that is not a tropical vector of the cell's n raises ValueError."""
    return _solved(v, w, p, False)


def _solved(v: Perm, w: Perm, p, signed: bool) -> dict:
    """``_weights`` of ``_solve`` on p's ``_int_view`` blocks; p must be a
    vector of the semiring that ``signed`` names and of n = len(v)."""
    if p.signed is not signed or p.n != len(v):
        raise ValueError(f"expected a {('tropical', 'classical')[signed]} vector "
                         f"with n={len(v)}, got a {p.mode} one with n={p.n}")
    blocks, L = p._int_view()
    return _weights(_solve(v, w, blocks, signed), L, signed)


def _solve(v: Perm, w: Perm, blocks: list, signed: bool) -> dict:
    """The weights of the cell (v, w) at the point whose ``_int_view``
    blocks are ``blocks``: one run of the cell's compiled walk (the cached
    diagram's ``walk``). A block that lists the cell's indices, as every
    block of a vector from ``phi``/``trop_phi`` or of a member does (the
    sweep's blocks are the walk's own tuples), is read by position; any
    other is first realigned onto them, at the positions the steps read
    only (a dict by position), an absent index at the semiring's zero (0 or
    None). Each step reads the value x_I at an independent generating index
    against the base, the value at the step before it in its size. Each
    size starts at its unit index v^-1(1..k), and each later collection is
    the one before it plus one added path, so x_I / x_base is the product
    of the weights on the paths added since the base: I's own and those of
    the dependent generators skipped in between, whose weights are all
    solved. A value that is not usable stops the walk there. Classically
    x_I is usable when x_I x_base > 0, and each weight is solved as the
    reduced pair (p, q) of positive ints of x_I / x_base divided by the
    pairs already solved for the step's other ids, cross-multiplied; those
    pairs are what ``phi``'s sweep takes (``plucker._exact_weights``).
    Tropically x_I is usable when finite, dividing subtracts, and the
    weights are ints, L times the cell weights. Each base is usable, so it
    has its unit's sign, and each weight is x_I / x_unit divided by the
    weights on I's other edges: the walk against the unit gives the same
    pairs and ints and stops at the same generator
    (``tests/solve_reference.py``)."""
    indices, steps, _ = build_diagram(v, w).walk
    values, realigned = [], False
    for (J, x), R in zip(blocks, indices):
        if J != R:      # realigned below: by index, then by the positions read
            x, realigned = dict(zip(J, x)), True
        values.append(x)
    if realigned:       # an absent index at the zero
        zero = 0 if signed else None
        for k, i, _, _ in steps:
            x = values[k - 1]
            if type(x) is dict:
                x[i] = x.get(indices[k - 1][i], zero)
    weights: dict = {}
    for k, i, new, others in steps:
        x = values[k - 1][i]
        if new is None:                 # the size's unit index
            base = x
        if x * base <= 0 if signed else x is None:
            raise ValueError(f"coordinate at generating index {indices[k - 1][i]} "
                             + ("is not positive" if signed else "is infinite"))
        if new is not None and signed:
            p, q = x, base
            for j in others:
                a, b = weights[j]
                p, q = p * b, q * a
            g = gcd(p, q)
            weights[new] = (abs(p) // g, abs(q) // g)
        elif new is not None:
            y = x - base
            for j in others:
                y -= weights[j]
            weights[new] = y
        base = x
    return weights


def _weights(a: Mapping[int, object], L: int, signed: bool) -> dict:
    """The solved weights as the library returns them: each reduced pair
    a Fraction classically, each int divided by L in a Trop tropically."""
    return {j: Fraction(*x) if signed else Trop(Fraction(x, L))
            for j, x in a.items()}


def _ratio(p: int, q: int) -> str:
    """``rat_to_str(Fraction(p, q))`` for ints p and q != 0, made from
    the ints with one gcd."""
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


# ---------------------------------------------------------------------------
# Decision procedures
# ---------------------------------------------------------------------------

def _reconstruct(p, blocks: list, L: int,
                 ) -> tuple[CellCertificate | dict | list, bool]:
    """Try to reconstruct p from its ``_int_view`` ``(blocks, L)``: the
    cell read off the lexicographic chains of the blocks' indices (whose
    unit index of size k is then the first of block k), the weights that
    ``_solve`` finds in them, and the cell's sweep of them
    (``wiring._run_sweep``: the solved weights are the cell's, ints
    tropically, L times the cell weights), which gives blocks of the same
    shape. Returns ``(found, same)``: the member certificate, which keeps
    the solved ints and L as they are (``CellCertificate``); the witness
    dict of ``no-cell`` when the chains give no cell, or of
    ``unsupported-generating-index`` when the walk meets an unusable
    coordinate; or else the sweep's blocks, with ``same`` telling whether
    they list the same index tuples as ``blocks``. Neither the keys nor a
    mismatch is looked into here: the deciders check the keys, then build
    only the witness they report.

    The input comes back when the index tuples are the same and each
    block agrees with the sweep's block of its size (``_agrees``).
    Tropically x_unit = Q_unit is 0, and so is r_unit, since every move
    raises a path and only the collection that moves none reaches the
    sources' own strands: the test reads Q_I = r_I. The view has raised
    for a key with an entry that is not an int, so the cell read sees
    ints only; a key that is not a tuple, such as a frozenset of ints,
    raises TypeError there, and the walk realigns a block whose indices
    are not the cell's by lookup, which raises none. That input is no
    member, and its keys fail the deciders' check."""
    try:
        v, w = _lex_chain_cell([I for I, _ in blocks], p.n)
    except (TypeError, ValueError) as exc:
        return {"type": "no-cell", "reason": str(exc)}, False
    try:
        a = _solve(v, w, blocks, p.signed)
    except ValueError as exc:
        return {"type": "unsupported-generating-index", "reason": str(exc)}, False
    found = _run_sweep(build_diagram(v, w), a, p.signed)
    same = [I for I, _ in found] == [I for I, _ in blocks]
    if same and all([_agrees(x, r) for (_, x), (_, r) in zip(blocks, found)]):
        return CellCertificate("member", (v, w), _ints=(a, L, p.signed)), True
    return found, same


def _agrees(x: list[int], r: list[int]) -> bool:
    """Whether the block of ints x is the block r up to its unit:
    x_I r_unit = r_I x_unit at every position, the two blocks listing the
    same indices. When the units are equal that is x = r, with no
    multiplication: on a vector from ``phi`` the view's blocks are the
    sweep's. Blocks scaled otherwise, as from JSON or a rescaled input,
    are cross-multiplied. Tropically both units are 0 (``_reconstruct``),
    so the test reads x = r."""
    return x == r if x[0] == r[0] else [c * r[0] for c in x] == [c * x[0] for c in r]


def _own_witness(p, blocks: list, found: dict | list, L: int) -> dict:
    """The reconstruction's own witness: ``found`` when it is one, else
    the ``reconstruction-mismatch`` of ``_first_difference`` between the
    view's blocks and the sweep's blocks ``found``."""
    return found if type(found) is dict else _first_difference(p, blocks, found, L)


def _first_difference(p, blocks: list, found: list, L: int) -> dict:
    """The first index, by size and then lexicographically, where the
    canonical coordinates of the blocks and of the sweep's blocks differ.
    Per size it walks the union of the two blocks' indices, an absent
    one at the semiring's zero, so the indices neither block lists are
    equal. The ints are compared as ``_agrees`` compares them,
    classically x_I r_unit against r_I x_unit and tropically Q_I against
    r_I (both units are 0), with no Fraction made; only the two
    coordinates of the reported index are rendered, from the ints
    (``_coordinate_text``). The sweep's blocks are never empty (each
    holds its unit index); an empty block of the input reads the zero at
    every index."""
    for (I, x), (J, r) in zip(blocks, found):
        a, b = dict(zip(I, x)), dict(zip(J, r))
        unit = x[0] if x else 1             # an empty block reads the zero throughout
        for K in sorted(a.keys() | b.keys()):
            c, d = a.get(K), b.get(K)
            if (c or 0) * r[0] != (d or 0) * unit if p.signed else c != d:
                return {"type": "reconstruction-mismatch", "index": index_to_str(K),
                        "input": _coordinate_text(p, c, unit, L),
                        "reconstructed": _coordinate_text(p, d, r[0], L)}
    raise AssertionError("unequal vectors with equal coordinates (bug)")


def _coordinate_text(p, c: int | None, unit: int, L: int) -> str:
    """The text of the canonical coordinate of the int c (None: absent)
    in a block of p's ``_int_view`` whose unit is ``unit``, as
    ``p.render`` gives the value that ``canonicalize`` makes of it."""
    return _ratio(c or 0, unit) if p.signed else "inf" if c is None else _ratio(c - unit, L)


def decide_tnn(p: PlueckerVector) -> CellCertificate:
    """Decide membership in the nonnegative complete flag variety by
    reconstruction-and-compare, certifying members by (v, w, weights).

    Every input gets one pass over its coordinates (``_int_view``), which
    gives per size the supported indices in lexicographic order and a
    list of an int at each, the raw sweep's own blocks, every value
    positive, when p came from ``phi`` and its coordinates were never
    read; then, on a vector built from coordinates only, this function's
    own check for a negative value. If there is none, the reconstruction
    (``_reconstruct``): the cell read off the first and last index of
    each size (flag and Bruhat checks), ``_solve``'s walk on int pairs,
    the sweep of those pairs and one comparison of the view's blocks with
    the sweep's, block by block (``_agrees``: a block whose unit is the
    sweep's, as on a vector from ``phi``, compares as lists, any other is
    cross-multiplied with the units). A member needs no further check,
    since its support is the flag matroid of its cell and its supported
    keys are the sweep's (the view raises on a key at the zero that is
    not an index). Any other input has its index keys
    checked once, and its rejection is named in this order: the first
    negative coordinate; the necessary flag-matroid conditions of
    ``flag_matroid_check`` on the support, run only when it is not the
    reconstruction's (which is the cell's, a flag matroid), the map by
    size of ``support()`` read only then; the reconstruction's own
    witness, read off the two block lists only then. A size block without
    Gale extremes is not a matroid, so that check names it. A p that is
    not a classical vector raises ValueError.
    """
    if not p.signed:
        raise ValueError(f"expected a classical vector, got a {p.mode} one")
    blocks, L = p._int_view()
    # a raw sweep's values are all positive: only given values are read
    negative = p._raw is None and any([min(x, default=0) < 0
                                       for _, x in blocks])
    found, same = (None, False) if negative else _reconstruct(p, blocks, L)
    if type(found) is CellCertificate:
        return found
    p.check_indices()
    if negative:
        I = next(I for J, x in blocks for I, c in zip(J, x) if c < 0)
        return _non_member({"type": "negative-coordinate",
                            "index": index_to_str(I),
                            "value": rat_to_str(p.coords[I])})
    if not same and not flag_matroid_check(p.support()):
        return _non_member({"type": "support-not-flag-matroid"})
    return _non_member(_own_witness(p, blocks, found, L))


def decide_trop(p: TropPlueckerVector) -> CellCertificate:
    """Decide membership in the nonnegative flag Dressian: the vector must
    reconstruct exactly from its cell weights.

    Every input gets the reconstruction of ``decide_tnn``, on the blocks
    of integers Q = L (p - p_unit) of ``_int_view``, the raw sweep's when
    p came from ``trop_phi`` and its coordinates were never read. A
    member positively solves every three-term tropical relation, so any
    other input has its index keys checked once, and its rejection is
    named in this order: the first violated three-term relation, scanned
    on the same Q, made a map by index only then (a relation's terms
    share one size pair, so the shifts add one constant to all of them);
    the no-cell witness of ``identify_cell`` on ``support()``, read only
    then; the reconstruction's own witness, read off the two block lists
    only then.

    Which relations decide which inputs: the vectors this certifies are
    those with every size block nonempty that positively solve every
    relation of ``generate_relations(n)``. When every coordinate is
    finite, the three-term relations alone decide it (Joswig-Loho-Luber-
    Olarte 2021), and a member's cell is then id <= w0; with infinite
    coordinates they do not (``tests/test_theorems.py`` pins an n = 5
    vector). A p that is not a tropical vector raises ValueError.
    """
    if p.signed:
        raise ValueError(f"expected a tropical vector, got a {p.mode} one")
    blocks, L = p._int_view()
    found, _ = _reconstruct(p, blocks, L)
    if type(found) is CellCertificate:
        return found
    p.check_indices()
    Q = {I: c for J, x in blocks for I, c in zip(J, x)}
    rel = _first_violated(generate_relations(p.n, True), Q.get)
    if rel is not None:
        return _non_member({"type": "violated-tropical-relation",
                            **_relation_json(rel)})
    try:
        identify_cell(p.support(), p.n)
    except ValueError as exc:
        return _non_member({"type": "no-cell", "reason": str(exc)})
    return _non_member(_own_witness(p, blocks, found, L))


# ---------------------------------------------------------------------------
# Three-term propagation
# ---------------------------------------------------------------------------

def _propagate(values: Mapping[Index, object], cell: tuple[Perm, Perm],
               cls, walk, sweep):
    """The point of ``cell`` whose values at its extremal indices (the
    cell's walk program lists them) are ``values``: ``sweep`` (``phi`` or
    ``trop_phi``) of the weights that ``walk`` (``psi`` or ``trop_psi``)
    solves from them, each read against its size's unit, the value at the
    lexicographically least extremal index. Each dependent value, at an
    extremal index outside ``s_vw``, canonicalized the same way, must
    equal the point's."""
    v, w = cell
    extremal = build_diagram(v, w).walk[2]
    for I in extremal:
        if I not in values:
            raise ValueError(f"missing value at extremal index {I}")
        if values[I] == cls.zero:
            raise ValueError(f"extremal index {I} has the zero value "
                             f"{cls.render(cls.zero)}")
    given = cls(len(v), {I: values[I] for I in extremal}).canonicalize()
    q = sweep(v, w, walk(v, w, given))
    independent = set(s_vw(v, w))
    for I in extremal:
        if I not in independent and q.coord(I) != given.coords[I]:
            raise ValueError(f"the value at dependent extremal index {I} "
                             "disagrees with the point the others give")
    return q


def propagate_three_term(values: Mapping[Index, Fraction],
                         cell: tuple[Perm, Perm]) -> PlueckerVector:
    """Rebuild every supported coordinate from its values at the extremal
    indices (those of the cell's walk program, none of them zero): ``psi``
    solves the weights from the independent values, each read against
    its size's unit, and ``phi`` of them is the point, canonical and
    listed by size, each size block lexicographically. A missing or zero
    value, an independent value that the walk finds not positive, or a
    dependent value that disagrees with the point raises ValueError
    naming its index. The point solves every three-term relation;
    ``oracle._propagate`` reaches it one such relation at a time, as the
    source paper does."""
    return _propagate(values, cell, PlueckerVector, psi, phi)


def trop_propagate_three_term(values: Mapping[Index, Trop],
                              cell: tuple[Perm, Perm]) -> TropPlueckerVector:
    """Min-plus version of propagate_three_term: ``trop_psi`` solves the
    weights on Q = L (p - p_unit), and ``trop_phi`` gives the point."""
    return _propagate(values, cell, TropPlueckerVector, trop_psi, trop_phi)


if __name__ == "__main__":
    import doctest
    doctest.testmod()
