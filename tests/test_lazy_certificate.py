"""Differential test of the member certificates that the deciders return.

A decider's member certificate keeps the weights as the walk solved
them, reduced int pairs classically and ints L times the weights
tropically. It makes their Fractions or Trops only when ``weights`` is
first read, and ``to_json_dict`` renders the ints as they are. The eager
certificate it replaces is frozen below as ``FrozenCertificate``: the
record the deciders built with every weight made exact, and its own
``to_json_dict``. Its weights come from the frozen walk on the frozen
integer view (``solve_reference.ref_psi`` / ``ref_trop_psi``), as
Fractions or as Trops of Fractions, in the order the walk solves them.

Each certificate is compared with that record and with the library's
``CellCertificate(..., weights=...)`` built from the same weights:
equal ``to_json_dict`` before and after ``weights`` is read, equal
``repr``, ``==`` both ways with each side unread at first, values of the
exact types, the same dict on a second read, and a pickle round trip
(every protocol in turn) before and after the read. Inputs: 200 seeded
cells of each S_n, n = 3..6 (drawn with repeats), through ``phi`` and
``trop_phi`` at seeded weights, negative and fractional tropically, and
the inputs of ``test_decide_order.py``'s two order tests, members and
rejections alike.
"""

import pickle
import random
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from tnnflag.algebra import Trop, rat_to_str, trop_to_str
from tnnflag.membership import CellCertificate, decide_tnn, decide_trop
from tnnflag.perms import bruhat_leq, perm_to_str
from tnnflag.plucker import phi, trop_phi
from tnnflag.wiring import build_diagram

from solve_reference import ref_psi, ref_trop_psi
from test_decide_order import _cells, _inputs, _random_inputs

PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


class FrozenCertificate(NamedTuple):
    """The certificate as the deciders built it before it kept its ints."""
    verdict: str
    cell: tuple | None = None
    weights: dict | None = None
    witness: dict | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.cell is not None:
            out["v"] = perm_to_str(self.cell[0])
            out["w"] = perm_to_str(self.cell[1])
        if self.weights is not None:
            out["weights"] = {
                str(j): (trop_to_str(x) if isinstance(x, Trop) else rat_to_str(x))
                for j, x in sorted(self.weights.items())}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _exact(x, signed):
    if signed:
        return type(x) is Fraction
    return type(x) is Trop and type(x.value) is Fraction


def _check(p, i, seen):
    """Compare the decider's certificate for p with the frozen record and
    the library's eagerly built one; i picks the pickle protocol."""
    decide = decide_tnn if p.signed else decide_trop
    first, second = decide(p), decide(p)
    weights = None
    if first.verdict == "member":
        weights = (ref_psi if p.signed else ref_trop_psi)(*first.cell, p)
    frozen = FrozenCertificate(first.verdict, first.cell, weights, first.witness)
    eager = CellCertificate(first.verdict, cell=first.cell, weights=weights,
                            witness=first.witness)
    want = frozen.to_json_dict()
    assert first.to_json_dict() == want, p.coords          # from the ints
    back = pickle.loads(pickle.dumps(decide(p), PROTOCOLS[i % len(PROTOCOLS)]))
    assert first == eager and eager == second, p.coords     # each read here
    assert first.weights is first.weights
    text = repr(frozen).replace("FrozenCertificate", "CellCertificate", 1)
    for cert in (first, second, eager, back,
                 pickle.loads(pickle.dumps(first, PROTOCOLS[-1 - i % len(PROTOCOLS)]))):
        assert type(cert) is CellCertificate and cert == eager, p.coords
        assert cert.to_json_dict() == want and repr(cert) == text, p.coords
        assert all(_exact(x, p.signed) for x in (cert.weights or {}).values())
    seen[p.mode, first.verdict] += 1
    return first


def _seeded_cell(n, rng):
    while True:
        v, w = (tuple(rng.sample(range(1, n + 1), n)) for _ in range(2))
        if bruhat_leq(v, w):
            return v, w


def test_member_certificates_match_the_eager_ones():
    rng = random.Random(39)
    seen = Counter()
    i = 0
    for n in (3, 4, 5, 6):
        for _ in range(200):
            v, w = _seeded_cell(n, rng)
            ids = build_diagram(v, w).weight_ids()
            a = {j: Fraction(rng.randint(1, 99), rng.randint(1, 9)) for j in ids}
            x = {j: Trop(Fraction(rng.randint(-99, 99), rng.randint(1, 9)))
                 for j in ids}
            for p, given in ((phi(v, w, a), a), (trop_phi(v, w, x), x)):
                cert = _check(p, i, seen)
                assert cert.cell == (v, w) and cert.weights == given, (v, w)
                i += 1
    assert seen == {("classical", "member"): 800, ("tropical", "member"): 800}


def test_decide_order_inputs_match_the_eager_ones():
    seen = Counter()
    rng = random.Random(7)                  # test_orders_agree_on_s3_s4
    inputs = []
    for n in (3, 4):
        classical, tropical = _inputs(_cells(n) * 2, rng)
        c2, t2 = _random_inputs(n, 40, rng)
        inputs += classical + c2 + tropical + t2
    rng = random.Random(11)                 # test_orders_agree_on_s5_sample
    inputs += sum(_inputs(rng.sample(_cells(5), 40), rng), [])
    for i, p in enumerate(inputs):
        _check(p, i, seen)
    for mode in ("classical", "tropical"):
        assert seen[mode, "member"] and seen[mode, "non-member"], seen
