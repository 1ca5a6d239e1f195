import random
import re
from fractions import Fraction

import pytest

from tnnflag import extremal, membership, oracle
from tnnflag.algebra import TROP_INF, Trop
from tnnflag.extremal import cell_support, extremal_index_set
from tnnflag.membership import (
    decide_tnn, decide_trop, identify_cell, propagate_three_term, psi,
    trop_propagate_three_term, trop_psi,
)
from tnnflag.oracle import determinant_cofactor
from tnnflag.perms import (
    all_perms, bruhat_leq, identity, longest_element, perm_from_str,
)
from tnnflag.plucker import (
    PlueckerVector, TropPlueckerVector, all_proper_indices, phi, trop_phi,
)
from tnnflag.wiring import build_diagram

from oracle_reference import psi_monomials, random_flag
from test_decide_order import _inputs, _random_inputs, reconstruction
from walk_reference import generators

EX_V, EX_W = (1, 3, 2, 4), (4, 2, 1, 3)
EX_A = {1: Fraction(2), 2: Fraction(3), 4: Fraction(5)}


def _cells(n):
    ps = list(all_perms(n))
    return [(v, w) for v in ps for w in ps if bruhat_leq(v, w)]


def _weights(v, w, rng):
    return {j: Fraction(rng.randint(1, 9), rng.randint(1, 4))
            for j in build_diagram(v, w).weight_ids()}


def test_identify_cell_example_cell():
    p = phi(EX_V, EX_W, EX_A)
    assert identify_cell(p.support(), 4) == (EX_V, EX_W)


def test_identify_cell_rejects_non_nested_chains():
    # Gale extremes exist per size but do not form flags
    support = {1: {(2,)}, 2: {(1, 3)}}
    with pytest.raises(ValueError):
        identify_cell(support, 3)


@pytest.mark.parametrize("element", [0, 4, 9])
def test_chain_elements_outside_1_to_n_are_not_a_flag(element):
    """A chain through an element outside 1..n is no flag of subsets of
    1..n: the deciders name the key as ``check_indices`` does, and
    ``extremal_indices`` raises the flag error, on vectors built in
    Python, where no parser has checked the keys."""
    keys = [(element,), tuple(sorted((1, element)))]
    for cls, one, decide in ((PlueckerVector, Fraction(1), decide_tnn),
                             (TropPlueckerVector, Trop.of(0), decide_trop)):
        p = cls(3, dict.fromkeys(keys, one))
        with pytest.raises(ValueError, match=rf"bad index \({element},\) for n=3"):
            decide(p)
        with pytest.raises(ValueError, match="do not form a flag"):
            extremal.extremal_indices(p)


def test_psi_monomials_top_cell_n3():
    solved = psi_monomials(identity(3), longest_element(3))
    assert {j: m.exponents for j, m in solved.items()} == {
        2: {(1, 3): 1},
        3: {(2, 3): 1, (1, 3): -1},
        1: {(3,): 1, (1, 3): -1},
    }
    assert all(m.coefficient == 1 for m in solved.values())


def test_psi_inverts_phi_example_cell():
    p = phi(EX_V, EX_W, EX_A)
    assert psi(EX_V, EX_W, p) == EX_A


def test_psi_phi_roundtrip_sampled():
    rng = random.Random(1)
    for v, w in rng.sample(_cells(4), 25):
        a = _weights(v, w, rng)
        assert psi(v, w, phi(v, w, a)) == a


def test_psi_requires_positive_generators():
    p = PlueckerVector(4, {(1,): Fraction(1)})
    with pytest.raises(ValueError):
        psi(EX_V, EX_W, p)


def test_trop_psi_inverts_trop_phi():
    x = {j: Trop.of(val) for j, val in EX_A.items()}
    t = trop_phi(EX_V, EX_W, x)
    assert trop_psi(EX_V, EX_W, t) == x


def test_psi_refuses_a_vector_of_another_mode_or_n():
    """``psi`` and ``trop_psi`` raise ValueError on a vector of the other
    semiring, or of another n than the cell's, larger or smaller; they
    used to solve weights from it, or raise IndexError."""
    q = phi(EX_V, EX_W, EX_A)
    t = trop_phi(EX_V, EX_W, {j: Trop(x) for j, x in EX_A.items()})
    s3 = ((1, 2, 3), (3, 2, 1))
    s5 = ((1, 2, 3, 4, 5), (5, 4, 3, 2, 1))
    cases = [(psi, s3, q, "classical vector with n=3, got a classical one with n=4"),
             (psi, s5, q, "n=5, got a classical one with n=4"),
             (psi, (EX_V, EX_W), t, "expected a classical vector with n=4, "
                                    "got a tropical one"),
             (trop_psi, (EX_V, EX_W), q, "expected a tropical vector with n=4, "
                                         "got a classical one"),
             (trop_psi, s3, t, "tropical vector with n=3, got a tropical one with n=4"),
             (trop_psi, s5, t, "n=5, got a tropical one with n=4")]
    for fn, (v, w), p, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            fn(v, w, p)
    assert psi(EX_V, EX_W, q) == EX_A
    assert trop_psi(EX_V, EX_W, t) == {j: Trop(x) for j, x in EX_A.items()}


def test_decide_tnn_refuses_a_tropical_vector():
    """It used to certify one a member, with ``Trop`` weights; fresh from
    ``trop_phi`` or given its coordinates, it raises ValueError."""
    t = trop_phi(EX_V, EX_W, {j: Trop(x) for j, x in EX_A.items()})
    for p in (t, TropPlueckerVector(4, t.coords)):
        with pytest.raises(ValueError, match="^expected a classical vector, "
                                             "got a tropical one$"):
            decide_tnn(p)
    assert decide_tnn(phi(EX_V, EX_W, EX_A)).verdict == "member"


def test_decide_trop_refuses_a_classical_vector():
    """It used to certify one a member, with ``Fraction`` weights; fresh
    from ``phi`` or given its coordinates, it raises ValueError."""
    q = phi(EX_V, EX_W, EX_A)
    for p in (q, PlueckerVector(4, q.coords)):
        with pytest.raises(ValueError, match="^expected a tropical vector, "
                                             "got a classical one$"):
            decide_trop(p)
    t = trop_phi(EX_V, EX_W, {j: Trop(x) for j, x in EX_A.items()})
    assert decide_trop(t).verdict == "member"


def test_decide_tnn_member():
    cert = decide_tnn(phi(EX_V, EX_W, EX_A))
    assert cert.verdict == "member"
    assert cert.cell == (EX_V, EX_W)
    assert cert.weights == EX_A
    d = cert.to_json_dict()
    assert d["v"] == "1324" and d["w"] == "4213"
    assert d["weights"] == {"1": "2", "2": "3", "4": "5"}


def test_decide_tnn_int_coordinates_are_exact():
    """Plain int coordinates, canonical or scaled per size block, get the
    certificate of their Fraction twin, with Fraction weights."""
    p = phi(EX_V, EX_W, EX_A)
    expected = decide_tnn(p)
    for scale in (1, 6):
        q = PlueckerVector(p.n, {I: int(c * scale) for I, c in p.coords.items()})
        assert all(type(c) is int for c in q.coords.values())
        cert = decide_tnn(q)
        assert cert == expected, scale
        assert all(type(x) is Fraction for x in cert.weights.values())


@pytest.mark.parametrize("tropical", [False, True])
def test_decide_rejects_unsorted_index_keys(tropical):
    """A member with one key written unsorted, such as (3, 2), gets a
    ValueError naming that key, whichever coordinate it is; so does a key
    of size 0 or n, and a key not of ints that only the inverse walk
    reads. So does every rejection given such a key at the zero
    of its semiring, whatever witness the decider would name, and
    whatever the reconstruction finds; and so does a member of every S3
    and S4 cell given such a key, as the README example with (3, 2) at
    the zero."""
    if tropical:
        p = trop_phi(EX_V, EX_W, {j: Trop(x) for j, x in EX_A.items()})
        decide = decide_trop
    else:
        p = phi(EX_V, EX_W, EX_A)
        decide = decide_tnn
    for I in [I for I in p.coords if len(I) > 1]:
        J = I[::-1]
        q = type(p)(p.n, {J if K == I else K: x for K, x in p.coords.items()})
        with pytest.raises(ValueError, match=re.escape(f"bad index {J} ")):
            decide(q)
    for J in [(), (1, 2, 3, 4)]:
        with pytest.raises(ValueError, match=re.escape(f"bad index {J} ")):
            decide(type(p)(p.n, {**p.coords, J: p.coords[(1,)]}))
    if not tropical:
        q = PlueckerVector(p.n, {(I[::-1] if I == (2, 3) else I):
                                 -x if I == (1,) else x
                                 for I, x in p.coords.items()})
        with pytest.raises(ValueError, match=re.escape("bad index (3, 2) ")):
            decide(q)
    with pytest.raises(ValueError, match=re.escape("bad index (3, 2) ")):
        decide(type(p)(p.n, {**p.coords, (3, 2): p.zero}))
    # a key not of ints that sorts with its size's other keys and is read
    # by neither chain end, so that only the walk's bisection meets it
    keys = [(1,), (4,), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
            (1, 2, 3), (1, 2, 4), (1, 3, "a"), (2, 3, 4)]
    with pytest.raises(ValueError, match=re.escape("bad index (1, 3, 'a') ")):
        decide(type(p)(p.n, dict.fromkeys(keys, p.coords[(1,)])))
    # members and rejections of every kind, each given an unsorted key at
    # the semiring's zero: the view leaves it out, so every check runs as
    # before, but the keys are checked ahead of the certificate or witness
    rng = random.Random(31)
    seen, cells = set(), set()
    for n in (3, 4):
        inputs = _inputs(_cells(n), rng)[tropical] \
            + _random_inputs(n, 40, rng)[tropical]
        for p in inputs:
            cert = decide(p)
            kind = (cert.witness or {}).get("type", "member")
            seen.add(kind)
            if kind == "member":
                cells.add(cert.cell)
            elif tropical:
                seen.add(("reconstruct", reconstruction(p)[0].witness["type"]))
            with pytest.raises(ValueError, match=re.escape(f"bad index {(n, 1)} ")):
                decide(type(p)(n, {**p.coords, (n, 1): p.zero}))
    own = ("no-cell", "unsupported-generating-index", "reconstruction-mismatch")
    if tropical:
        wanted = {"violated-tropical-relation", "no-cell"} \
            | {("reconstruct", kind) for kind in own}
    else:
        wanted = {"negative-coordinate", "support-not-flag-matroid", *own}
    assert seen == wanted | {"member"}, seen
    assert cells == {*_cells(3), *_cells(4)}


@pytest.mark.parametrize("tropical", [False, True])
def test_keys_equal_to_indices_are_bad_indices(tropical):
    """On the S4 top cell, a key that equals an index without being one,
    of floats or with a bool entry, inside a size block or at a chain
    end: each decider raises the ValueError naming it, as for any other
    key that is not an index (a member's supported keys are indices)."""
    v, w = identity(4), longest_element(4)
    a = {j: Fraction(j) for j in build_diagram(v, w).weight_ids()}
    if tropical:
        p, decide = trop_phi(v, w, {j: Trop(x) for j, x in a.items()}), decide_trop
    else:
        p, decide = phi(v, w, a), decide_tnn
    for I, J, inside in [((1, 4), (1.0, 4.0), True), ((1, 4), (True, 4), True),
                         ((1, 2, 4), (1, 2, 4.0), True),
                         ((1, 2), (1.0, 2.0), False), ((1, 2), (True, 2), False),
                         ((1,), (True,), False), ((3, 4), (3.0, 4), False)]:
        block = sorted(K for K in p.coords if len(K) == len(I))
        assert (block[0] != I != block[-1]) is inside, I
        q = type(p)(p.n, {J if K == I else K: x for K, x in p.coords.items()})
        with pytest.raises(ValueError, match=re.escape(f"bad index {J!r} for n=4")):
            decide(q)


def test_decide_tnn_negative_coordinate():
    p = phi(EX_V, EX_W, EX_A)
    p.coords[(2, 3)] = -p.coords[(2, 3)]
    cert = decide_tnn(p)
    assert cert.verdict == "non-member"
    assert cert.witness["type"] == "negative-coordinate"
    assert cert.witness["index"] == "2,3"


def test_decide_tnn_perturbed_coordinate():
    """Nonnegative but off the cell: flagged with a concrete witness."""
    p = phi(identity(3), longest_element(3),
            {1: Fraction(2), 2: Fraction(3), 3: Fraction(4)})
    p.coords[(2,)] += 1
    cert = decide_tnn(p)
    assert cert.verdict == "non-member"
    assert cert.witness["type"] == "reconstruction-mismatch"
    assert cert.witness["index"] == "2"


def test_decide_tnn_flag_of_positroids_counterexample():
    """Each constituent support is a positroid, yet no single nonnegative
    matrix realizes them all: P_12 > 0 and P_23 > 0 force opposite signs on
    the middle row once the first row is (a 0 b)."""
    p = PlueckerVector(3, {
        (1,): Fraction(1), (3,): Fraction(1),
        (1, 2): Fraction(1), (1, 3): Fraction(1), (2, 3): Fraction(1),
    })
    cert = decide_tnn(p)
    assert cert.verdict == "non-member"


def test_decide_trop_member_and_reject():
    t = trop_phi(EX_V, EX_W, {j: Trop.of(x) for j, x in EX_A.items()})
    cert = decide_trop(t)
    assert cert.verdict == "member" and cert.cell == (EX_V, EX_W)
    t.coords[(2, 3)] = Trop.of(999)
    bad = decide_trop(t)
    assert bad.verdict == "non-member"
    assert bad.witness["type"] in ("violated-tropical-relation",
                                   "reconstruction-mismatch")


def test_certificate_exit_semantics_round_trip():
    cert = decide_tnn(phi(EX_V, EX_W, EX_A))
    d = cert.to_json_dict()
    assert set(d) == {"verdict", "v", "w", "weights"}


# cells where propagation reaches the four-element relation of case (c)
CASE_C_CELLS = [tuple(map(perm_from_str, cell)) for cell in (
    ("1423", "4132"), ("1423", "4231"), ("2413", "4231"),
    ("12534", "15243"), ("12534", "25341"))]


def _propagation_cells():
    """Every S3/S4 cell, a seeded 150-cell S5 sample and the case-(c)
    cells of S5."""
    s5 = set(random.Random(11).sample(_cells(5), 150)) | set(CASE_C_CELLS[3:])
    return _cells(3) + _cells(4) + sorted(s5)


def _check_propagation(monkeypatch, vector_at, propagate):
    """The oracle's three-term solver rebuilds ``vector_at(v, w, rng)``
    from its extremal values on every propagation cell, reaching case (c)
    on each of ``CASE_C_CELLS``, and ``propagate`` gives the solver's
    vector, in the same dict order."""
    reached = set()
    witness = oracle._case_c_witness

    def spy(*args):
        reached.add(cell)
        return witness(*args)

    monkeypatch.setattr(oracle, "_case_c_witness", spy)
    rng = random.Random(2)
    for cell in _propagation_cells():
        p = vector_at(*cell, rng)
        ext = extremal_index_set(cell_support(*cell))
        values = {I: p.coord(I) for I in ext}
        solved = oracle._propagate(values, cell, type(p))
        assert list(solved.coords.items()) == list(p.coords.items()), cell
        assert list(propagate(values, cell).coords.items()) == \
            list(solved.coords.items()), cell
    assert reached >= set(CASE_C_CELLS)


def test_propagation_matches_phi_sampled(monkeypatch):
    _check_propagation(
        monkeypatch, lambda v, w, rng: phi(v, w, _weights(v, w, rng)),
        propagate_three_term)


def test_trop_propagation_matches_trop_phi_sampled(monkeypatch):
    def trop_vector(v, w, rng):
        return trop_phi(v, w, {
            j: Trop.of(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
            for j in build_diagram(v, w).weight_ids()})
    _check_propagation(monkeypatch, trop_vector, trop_propagate_three_term)


def test_propagation_runs_no_flag_matroid_check(monkeypatch):
    """The extremal set comes from the cell's walk program, not from
    re-checking the support's flag-matroid conditions."""
    def refuse(support):
        raise AssertionError("flag_matroid_check called")

    monkeypatch.setattr(extremal, "flag_matroid_check", refuse)
    monkeypatch.setattr(membership, "flag_matroid_check", refuse)
    top = (identity(5), longest_element(5))
    p = phi(*top, _weights(*top, random.Random(4)))
    values = {g.index: p.coord(g.index) for g in generators(*top)}
    assert propagate_three_term(values, top).coords == p.coords


@pytest.mark.parametrize("propagate, value, problem", [
    (propagate_three_term, None, "missing value"),
    (propagate_three_term, Fraction(0), "has the zero value 0"),
    (trop_propagate_three_term, TROP_INF, "has the zero value inf"),
], ids=["missing", "zero", "inf"])
def test_propagation_needs_all_extremal_values(propagate, value, problem):
    """Each extremal value must be given and not the semiring's zero; the
    error names the index."""
    top = (identity(4), longest_element(4))
    values = ({} if value is None else
              {I: value for I in extremal_index_set(cell_support(*top))})
    with pytest.raises(ValueError, match=r"extremal index \(\d[\d, ]*\)") as exc:
        propagate(values, top)
    assert problem in str(exc.value)


@pytest.mark.parametrize("tropical", [False, True])
def test_propagation_rejects_inconsistent_values(tropical):
    """A value at a dependent extremal index doubled (classically) or
    raised by 1 (tropically) raises ValueError naming that index, on every
    S4 cell that has one; the top cell has none, its 9 extremal indices
    being all independent. Classically, so does a value negated at an
    independent index that solves a weight, on the S4 top cell."""
    rng = random.Random(6)
    top = (identity(4), longest_element(4))
    propagate = trop_propagate_three_term if tropical else propagate_three_term

    def bump(x):
        return Trop(x.value + 1) if tropical else 2 * x

    dependent = 0
    for cell in _cells(4):
        a = _weights(*cell, rng)
        p = (trop_phi(*cell, {j: Trop(x) for j, x in a.items()}) if tropical
             else phi(*cell, a))
        gens = generators(*cell)
        values = {g.index: p.coord(g.index) for g in gens}
        edits = [(g.index, bump) for g in gens if not g.in_svw]
        dependent += len(edits)
        if cell == top and not tropical:
            edits += [(g.index, lambda x: -x) for g in gens
                      if g.new_weight_id is not None]
        for I, edit in edits:
            with pytest.raises(ValueError, match=re.escape(f"index {I} ")):
                propagate({**values, I: edit(values[I])}, cell)
    assert dependent
    assert all(g.in_svw for g in generators(*top))


def _jacobi_product(n, rng):
    """A random product of nonnegative elementary Jacobi matrices
    I + t E_{i,i+1}, I + t E_{i+1,i} (t >= 0 rational) and a positive
    diagonal; every minor of it is >= 0."""
    m = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for _ in range(rng.randint(0, n * n)):
        kind = rng.choice(("upper", "lower", "diagonal"))
        i = rng.randrange(n if kind == "diagonal" else n - 1)
        t = Fraction(rng.randint(0, 5), rng.randint(1, 3))
        for row in m:
            if kind == "upper":       # column i+1 += t * column i
                row[i + 1] += t * row[i]
            elif kind == "lower":     # column i += t * column i+1
                row[i] += t * row[i + 1]
            else:                     # column i *= a positive scalar
                row[i] *= t + 1
    return m


def test_totally_nonnegative_flags_are_members():
    """Bloch-Karp: a flag whose Pluecker coordinates are all >= 0 lies in
    the nonnegative flag variety. Flags of totally nonnegative matrices,
    minors by cofactor expansion, must all be members; random integer
    flags with a negative coordinate must all be rejected for it."""
    rng = random.Random(5)
    for n in (3, 4, 5):
        for _ in range(20):
            m = _jacobi_product(n, rng)
            p = PlueckerVector(n, {
                I: determinant_cofactor(
                    [[m[r][c - 1] for c in I] for r in range(len(I))])
                for I in all_proper_indices(n)})
            assert all(x >= 0 for x in p.coords.values())
            assert decide_tnn(p).verdict == "member", p.coords
        negative = [p for p in (random_flag(n, seed=rng.randrange(10**6))
                                for _ in range(12))
                    if any(x < 0 for x in p.coords.values())]
        assert negative
        for p in negative:
            assert decide_tnn(p).witness["type"] == "negative-coordinate"
