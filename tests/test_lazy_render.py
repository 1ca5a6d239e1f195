"""Differential test of the vectors that `phi` and `trop_phi` return.

Such a vector holds the raw sweep and renders its coordinates only when
`coords` is first read; until then `decide_tnn` and `decide_trop` read
the sweep's integers. Each one is compared with the rendered copy
`PlueckerVector(n, dict(p.coords))` of a fresh call with the same
weights, which takes the deciders' path for vectors given coordinates:
equal certificates, equal coordinates in equal dict order, equal `==`,
`repr` and `to_json_dict`. An edit made through `p.coords` after `phi`
must be what the decider sees. Cells: every S3 and S4 cell, a seeded
eighth of S5 and the S7 top cell, with an edit on every fourth cell and
the top cell. All of S5 would cost the suite about 7 s more (over 2 ms a
cell, edits included), which its 54 s budget cannot spare;
`test_decide_ints.py` decides tropical members of every S5 cell on the
raw path against its frozen reference.
"""

import random
from fractions import Fraction

from tnnflag.algebra import Trop
from tnnflag.extremal import s_vw
from tnnflag.membership import decide_tnn, decide_trop
from tnnflag.perms import bruhat_pairs, identity, longest_element
from tnnflag.plucker import phi, trop_phi
from tnnflag.wiring import build_diagram

from sweep_reference import raw_blocks, raw_sweep


def _cells():
    rng = random.Random(191)
    s5 = bruhat_pairs(5)
    return (bruhat_pairs(3) + bruhat_pairs(4)
            + sorted(rng.sample(s5, len(s5) // 8))
            + [(identity(7), longest_element(7))])


def _weights(v, w, rng, tropical):
    ids = build_diagram(v, w).weight_ids()
    if tropical:
        return {j: Trop(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                for j in ids}
    return {j: Fraction(rng.randint(1, 99), rng.randint(1, 9)) for j in ids}


def _same_certificate(a, b):
    assert a.to_json_dict() == b.to_json_dict()
    assert a.weights == b.weights


def _check(v, w, weights, make, decide, edit=None):
    """The raw-backed vector and its rendered copy agree, and so do their
    verdicts after the same ``edit`` when one is given; returns whether a
    size block of the sweep had a negative raw unit."""
    fresh = make(v, w, weights)
    raw, _ = raw_sweep(fresh)
    negative_unit = any(found and found[0][1] < 0 for found in
                        raw_blocks(fresh.n, raw, 0 if fresh.signed else None))
    rendered = type(fresh)(fresh.n, dict(make(v, w, weights).coords))
    cert = decide(fresh)
    assert fresh._raw is not None, "deciding rendered the raw sweep"
    assert cert.verdict == "member" and cert.cell == (v, w)
    _same_certificate(cert, decide(rendered))
    assert list(fresh.coords.items()) == list(rendered.coords.items())
    assert fresh._raw is None
    assert fresh == rendered and repr(fresh) == repr(rendered)
    assert fresh.to_json_dict() == rendered.to_json_dict()

    # an edit through ``coords`` after the call is what the decider reads
    others = sorted(set(rendered.coords) - set(s_vw(v, w)))
    if edit is not None and others:
        edited = make(v, w, weights)
        copy = type(fresh)(fresh.n, dict(rendered.coords))
        I = others[len(others) // 2]
        edited.coords[I] = copy.coords[I] = edit(copy.coords[I])
        bad = decide(edited)
        assert bad.verdict == "non-member"
        _same_certificate(bad, decide(copy))
    return negative_unit


def test_raw_backed_vectors_match_their_rendered_copies():
    rng = random.Random(192)
    negative_units = 0
    cells = _cells()
    for i, (v, w) in enumerate(cells):
        edit = i % 4 == 0 or i == len(cells) - 1
        negative_units += _check(v, w, _weights(v, w, rng, False), phi,
                                 decide_tnn, (lambda x: 2 * x) if edit else None)
        _check(v, w, _weights(v, w, rng, True), trop_phi, decide_trop,
               (lambda t: Trop(t.value + 1)) if edit else None)
    # every collection into a size has one sign, so the sweep drops it
    assert negative_units == 0
