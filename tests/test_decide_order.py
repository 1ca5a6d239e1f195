"""Differential test of the deciders' order of checks.

`decide_tnn` and `decide_trop` reconstruct first and run the flag-matroid
check or the three-term scan only to name a rejection; the reconstruction
reads the cell off the lexicographic chains of the support, and only
`decide_trop` runs the Gale check of `identify_cell`, last, to name a
rejection. The checks-first order they replace, reconstruction included,
is written out below from public pieces; both orders must give the same
certificate, verdict and witness, on every input.
"""

import itertools
import json
import pathlib
import random
from collections import Counter

from tnnflag import membership
from tnnflag.algebra import Trop, rat_to_str
from tnnflag.extremal import s_vw
from tnnflag.membership import (
    CellCertificate, _own_witness, _reconstruct, decide_tnn, decide_trop,
    identify_cell, psi, trop_psi,
)
from tnnflag.oracle import flag_matroid_check, generic_weights
from tnnflag.perms import (
    all_perms, bruhat_leq, gale_leq, identity, longest_element,
)
from tnnflag.plucker import (
    PlueckerVector, TropPlueckerVector, all_proper_indices,
    generate_relations, index_to_str, phi, trop_phi,
)

from oracle_reference import random_flag, trop_check_relation


def _non_member(witness):
    return CellCertificate("non-member", witness=witness)


def reconstruction(p):
    """The reconstruction's certificate for p, its own witness when it
    rejects (after the key check), and whether the sweep lists p's
    supported indices."""
    blocks, L = p._int_view()
    found, same = _reconstruct(p, blocks, L)
    if isinstance(found, CellCertificate):
        return found, same
    p.check_indices()
    return _non_member(_own_witness(p, blocks, found, L)), same


def reconstruct_checks_first(p, psi_fn, phi_fn):
    """Identify the cell with every check of `identify_cell`, solve the
    weights of the canonical vector and compare index by index."""
    try:
        v, w = identify_cell(p.support(), p.n)
    except ValueError as exc:
        return _non_member({"type": "no-cell", "reason": str(exc)})
    q = p.canonicalize()
    try:
        weights = psi_fn(v, w, q)
    except ValueError as exc:
        return _non_member({"type": "unsupported-generating-index",
                            "reason": str(exc)})
    r = phi_fn(v, w, weights)
    for I in sorted(set(q.coords) | set(r.coords), key=lambda I: (len(I), I)):
        if q.coord(I) != r.coord(I):
            return _non_member({
                "type": "reconstruction-mismatch", "index": index_to_str(I),
                "input": q.render(q.coord(I)),
                "reconstructed": q.render(r.coord(I))})
    return CellCertificate("member", cell=(v, w), weights=weights)


def decide_tnn_checks_first(p):
    for I in sorted(p.coords, key=lambda I: (len(I), I)):
        if p.coords[I] < 0:
            return _non_member({"type": "negative-coordinate",
                                "index": index_to_str(I),
                                "value": rat_to_str(p.coords[I])})
    if not flag_matroid_check(p.support()):
        return _non_member({"type": "support-not-flag-matroid"})
    return reconstruct_checks_first(p, psi, phi)


def decide_trop_checks_first(p):
    for rel in generate_relations(p.n, True):
        if not trop_check_relation(rel, p, positive=True):
            return _non_member({
                "type": "violated-tropical-relation",
                "I": index_to_str(rel.I) if rel.I else "",
                "J": index_to_str(rel.J),
                "terms": [[sign, index_to_str(a), index_to_str(b)]
                          for sign, a, b in rel.terms]})
    return reconstruct_checks_first(p, trop_psi, trop_phi)


def _cells(n):
    ps = list(all_perms(n))
    return [(v, w) for v in ps for w in ps if bruhat_leq(v, w)]


def _gale_breaking(p):
    """Unsupported indices J of p lexicographically strictly between the
    least and the greatest supported index of their size, but not between
    them in Gale order: adding J keeps the lexicographic chains, and so
    the cell they give, while the support loses its Gale extremes."""
    out = []
    for k, block in p.support().items():
        lo, hi = min(block), max(block)
        out += [(J, lo) for J in itertools.combinations(range(1, p.n + 1), k)
                if lo < J < hi and J not in block
                and not (gale_leq(lo, J) and gale_leq(J, hi))]
    return out


def _edits(p, rng, bump):
    """The member p, p with one coordinate bumped, p with one coordinate
    zeroed, and, where there is one, p with a Gale-breaking index added
    (each coordinate chosen by rng)."""
    out = [p]
    for edit in ("bump", "zero"):
        coords = dict(p.coords)
        I = rng.choice(sorted(coords))
        if edit == "bump":
            coords[I] = bump(coords[I])
        else:
            del coords[I]
        out.append(type(p)(p.n, coords))
    breaking = _gale_breaking(p)
    if breaking:
        J, lo = rng.choice(breaking)
        out.append(type(p)(p.n, {**p.coords, J: p.coords[lo]}))
    return out


def _inputs(cells, rng):
    """Classical and tropical inputs: members of each cell and their
    one-coordinate edits."""
    classical, tropical = [], []
    for v, w in cells:
        a = generic_weights(v, w, seed=rng.randrange(1000))
        classical += _edits(phi(v, w, a), rng, lambda x: x * 2)
        x = {j: Trop.of(rng.randint(-3, 3)) for j in a}
        tropical += _edits(trop_phi(v, w, x), rng,
                           lambda t: t * Trop.of(rng.choice((-1, 1))))
    return classical, tropical


def _random_inputs(n, count, rng):
    """random_flag draws, their absolute values, and random tropical
    vectors with some infinite coordinates."""
    classical, tropical = [], []
    for _ in range(count):
        f = random_flag(n, seed=rng.randrange(10**6))
        classical.append(f)
        classical.append(PlueckerVector(
            n, {I: abs(x) for I, x in f.coords.items()}))
        tropical.append(TropPlueckerVector(n, {
            I: Trop.of(rng.randint(-2, 2)) for I in all_proper_indices(n)
            if rng.random() < 0.85}))
    return classical, tropical


def _compare(classical, tropical):
    seen = Counter()
    for p in classical + tropical:
        fns = (trop_psi, trop_phi) if p.mode == "tropical" else (psi, phi)
        cert, _ = reconstruction(p)
        try:
            identify_cell(p.support(), p.n)
        except ValueError as exc:
            if "Gale extremes" in str(exc):
                # the deciders name these with a later check
                seen["reconstruct:no-gale-extremes"] += 1
                continue
        assert cert.to_json_dict() == \
            reconstruct_checks_first(p, *fns).to_json_dict(), p.coords
    for p in classical:
        cert = decide_tnn(p).to_json_dict()
        assert cert == decide_tnn_checks_first(p).to_json_dict(), p.coords
        seen[cert.get("witness", {}).get("type", "member")] += 1
    for p in tropical:
        cert = decide_trop(p).to_json_dict()
        assert cert == decide_trop_checks_first(p).to_json_dict(), p.coords
        seen["trop:" + cert.get("witness", {}).get("type", "member")] += 1
    return seen


def test_orders_agree_on_s3_s4():
    rng = random.Random(7)
    seen = Counter()
    for n in (3, 4):
        classical, tropical = _inputs(_cells(n) * 2, rng)
        c2, t2 = _random_inputs(n, 40, rng)
        seen += _compare(classical + c2, tropical + t2)
    assert {"member", "negative-coordinate", "support-not-flag-matroid",
            "no-cell", "unsupported-generating-index",
            "reconstruction-mismatch", "trop:member",
            "trop:violated-tropical-relation", "trop:no-cell",
            "reconstruct:no-gale-extremes"} <= set(seen), seen


def test_orders_agree_on_s5_sample():
    rng = random.Random(11)
    seen = _compare(*_inputs(rng.sample(_cells(5), 40), rng))
    assert seen["member"] and seen["trop:member"] and \
        seen["reconstruct:no-gale-extremes"], seen


def _count_calls(monkeypatch, module, names):
    """Wrap each of ``names`` in ``module`` with a call counter."""
    calls = Counter()
    for name in names:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def _corpus_case(name):
    corpus = json.loads((pathlib.Path(__file__).parent / "data"
                         / "cli_corpus.json").read_text())
    case = next(c for c in corpus["cases"] if c["argv"][-1] == name)
    return corpus["files"][name], json.loads(case["stdout"])


def _gale_breaking_edits(rng):
    """Members of every S4 cell and of seeded S5 cells, classical and
    tropical, each with a Gale-breaking index added where there is one."""
    classical, tropical = [], []
    for v, w in _cells(4) + rng.sample(_cells(5), 30):
        a = generic_weights(v, w, seed=rng.randrange(1000))
        x = {j: Trop.of(rng.randint(-3, 3)) for j in a}
        for p, out in ((phi(v, w, a), classical), (trop_phi(v, w, x), tropical)):
            breaking = _gale_breaking(p)
            if breaking:
                J, lo = rng.choice(breaking)
                out.append(type(p)(p.n, {**p.coords, J: p.coords[lo]}))
    return classical, tropical


def test_decide_tnn_names_a_rejection_with_one_flag_matroid_check(monkeypatch):
    """On supports without Gale extremes, decide_tnn runs no Gale check and
    one flag-matroid check, and its certificate is unchanged."""
    obj, expected = _corpus_case("no-gale-extremes.json")
    classical, _ = _gale_breaking_edits(random.Random(13))
    inputs = [PlueckerVector.from_json_dict(obj)] + classical
    wanted = [expected] + [decide_tnn_checks_first(p).to_json_dict()
                           for p in classical]
    calls = _count_calls(monkeypatch, membership,
                         ["identify_cell", "gale_leq", "flag_matroid_check"])
    assert len(inputs) > 50
    for p, want in zip(inputs, wanted):
        calls.clear()
        assert decide_tnn(p).to_json_dict() == want, p.coords
        assert calls == {"flag_matroid_check": 1}, (calls, p.coords)


def test_decide_tnn_skips_the_flag_matroid_check_on_the_cell_support(monkeypatch):
    """A non-generating coordinate doubled keeps the support, which is
    then the reconstruction's, the cell's: decide_tnn names the rejection
    with no flag-matroid check, and its certificate is unchanged. Every
    non-generating coordinate of every S4 cell, and three of the S7 top
    cell."""
    rng = random.Random(19)
    inputs = []
    for v, w in _cells(4) + [(identity(7), longest_element(7))]:
        p = phi(v, w, generic_weights(v, w, seed=rng.randrange(1000)))
        others = sorted(set(p.coords) - set(s_vw(v, w)))
        if len(v) == 7:
            others = rng.sample(others, 3)
        inputs += [PlueckerVector(p.n, {**p.coords, I: 2 * p.coords[I]})
                   for I in others]
    wanted = [decide_tnn_checks_first(p).to_json_dict() for p in inputs]
    calls = _count_calls(monkeypatch, membership, ["flag_matroid_check"])
    seen = Counter()
    for p, want in zip(inputs, wanted):
        cert = decide_tnn(p).to_json_dict()
        assert cert == want, p.coords
        seen[cert.get("witness", {}).get("type", "member")] += 1
    assert calls == {}, calls
    assert len(inputs) > 300
    assert seen == {"reconstruction-mismatch": len(inputs)}, seen


def test_decide_trop_runs_identify_cell_only_without_a_violation(monkeypatch):
    obj, expected = _corpus_case("trop-no-gale-extremes.json")
    rng = random.Random(17)
    _, tropical = _gale_breaking_edits(rng)
    _, edits = _inputs(rng.sample(_cells(4), 30), rng)
    inputs = [TropPlueckerVector.from_json_dict(obj)] + tropical + edits
    wanted = [expected] + [decide_trop_checks_first(p).to_json_dict()
                           for p in tropical + edits]
    calls = _count_calls(monkeypatch, membership, ["identify_cell"])
    seen = Counter()
    for p, want in zip(inputs, wanted):
        calls.clear()
        cert = decide_trop(p).to_json_dict()
        assert cert == want, p.coords
        kind = cert.get("witness", {}).get("type", "member")
        runs = kind not in ("member", "violated-tropical-relation")
        assert calls["identify_cell"] == runs, (kind, calls, p.coords)
        seen[kind, runs] += 1
    assert seen["member", False] and seen["no-cell", True] \
        and seen["violated-tropical-relation", False], seen


def test_mismatch_witness_is_built_only_when_reported(monkeypatch):
    """The reconstruction-mismatch witness (``_first_difference`` on the
    view's blocks and the sweep's) is built once when a decider
    reports it and not at all when ``decide_trop`` reports a violated
    relation or ``identify_cell``'s no-cell, or ``decide_tnn`` reports
    support-not-flag-matroid, though the reconstruction got as far as the
    sweep for every reported kind here but the tropical no-cell.
    Certificates are unchanged."""
    rng = random.Random(23)
    classical, tropical = _gale_breaking_edits(rng)
    c2, t2 = _inputs(rng.sample(_cells(4), 40), rng)
    inputs = classical + c2 + tropical + t2
    wanted, swept = [], []
    for p in inputs:
        decide_checks_first = decide_trop_checks_first \
            if p.mode == "tropical" else decide_tnn_checks_first
        wanted.append(decide_checks_first(p).to_json_dict())
        swept.append(type(_reconstruct(p, *p._int_view())[0]) is list)
    calls = _count_calls(monkeypatch, membership, ["_first_difference"])
    seen = Counter()
    for p, want, sweep in zip(inputs, wanted, swept):
        calls.clear()
        cert = (decide_trop if p.mode == "tropical" else decide_tnn)(p)
        assert cert.to_json_dict() == want, p.coords
        kind = (cert.witness or {}).get("type", "member")
        built = kind == "reconstruction-mismatch"
        assert calls["_first_difference"] == built, (kind, calls, p.coords)
        seen[p.mode, kind, sweep] += 1
    for key in (("classical", "support-not-flag-matroid", True),
                ("classical", "reconstruction-mismatch", True),
                ("tropical", "violated-tropical-relation", True),
                ("tropical", "no-cell", False)):
        assert seen[key], (key, seen)
