#!/usr/bin/env python3
"""
Capture the CLI golden corpus: build a fixed set of input files, run each
command through `tnnflag.cli.run`, and write the inputs, the argv lists,
the exit codes and the exact stdout to one JSON file.

tests/test_cli_corpus.py replays the file and asserts byte equality, so a
refactor that must not change CLI output is checked against the corpus as
captured before it. Re-run this script only when an output change is
intended:

    PYTHONPATH=src python3 scripts/cli_corpus.py

With --check it instead replays the corpus file, without pytest, and
exits 1 at the first case whose exit code or stdout differs:

    PYTHONPATH=src python3 scripts/cli_corpus.py --check

Every input has n <= 5, inside the default --max-n.
"""

import argparse
import contextlib
import io
import json
import pathlib
import sys
import tempfile
from fractions import Fraction

from tnnflag.algebra import Trop
from tnnflag.cli import run
from tnnflag.extremal import flag_matroid_check, s_vw
from tnnflag.membership import identify_cell
from tnnflag.perms import perm_from_str
from tnnflag.plucker import phi, trop_phi
from tnnflag.wiring import build_diagram

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "data" / "cli_corpus.json"

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

# (file name, v, w, tropical, edit, index): one coordinate of the member
# of cell (v, w) with prime weights is negated, deleted or inserted; each
# edit is the first in S4 that gives the witness type in the file name
EDITED = [
    ("negative-coordinate.json", "1234", "1234", False, "negate", (1,)),
    ("support-not-flag-matroid.json", "1234", "1234", False, "delete", (1,)),
    ("no-cell.json", "1234", "1342", False, "delete", (1, 4)),
    ("reconstruction-mismatch.json", "1234", "1342", False, "delete", (1, 3)),
    ("unsupported-generating-index.json", "1234", "1423", False, "delete", (1, 2, 4)),
    ("violated-tropical-relation.json", "1234", "1342", True, "delete", (1, 3)),
    ("trop-no-cell.json", "1234", "1234", True, "delete", (1,)),
    # the first edit in S4 whose support still identifies a cell but is
    # not a flag matroid, deleting a non-generating coordinate: psi and phi
    # run and reject, and the flag-matroid check must still name the witness
    ("cell-support-not-flag-matroid.json", "1234", "2341", False, "delete", (1, 3)),
    # the first insertion in S4 (at the semiring's one) that keeps the
    # lexicographic chains, and so the cell they give, but leaves the
    # support with no Gale extremes: the reconstruction rejects, and the
    # flag-matroid check or the three-term scan names the witness
    ("no-gale-extremes.json", "1234", "3124", False, "insert", (1, 4)),
    ("trop-no-gale-extremes.json", "1234", "3124", True, "insert", (1, 4)),
]

COMMANDS = [
    ["cell", "1324", "4213"],
    ["cell", "12345", "54321"],
    ["plucker", "1324", "4213", "--weights", "weights.json"],
    ["plucker", "1324", "4213", "--weights", "weights.json", "--tropical"],
    ["plucker", "12345", "54321", "--weights", "s5-mixed-weights.json",
     "--tropical"],
    # edges spanning 2-3 strands and several -1 segments: every sign counts
    ["plucker", "35241", "54231", "--weights", "s5-35241-weights.json"],
    ["plucker", "32154", "54231", "--weights", "s5-32154-weights.json"],
    ["extremal", "member.json"],
    ["extremal", "trop-member.json"],
    ["decide", "member.json"],
    ["trop-decide", "trop-member.json"],
    ["trop-decide", "s5-trop-member.json"],
    *[["trop-decide" if tropical else "decide", name]
      for name, _, _, tropical, _, _ in EDITED],
    ["relations", "4"],
    ["relations", "4", "--three-term"],
    ["relations", "5"],
    ["relations", "5", "--three-term"],
    ["verify", "3"],
    ["verify", "4"],
    # exponent notation is malformed input (Fraction would expand it)
    ["decide", "exponent.json"],
    ["trop-decide", "trop-exponent.json"],
    ["plucker", "12", "21", "--weights", "exponent-weights.json"],
]


def _prime_weights(v, w) -> dict[int, Fraction]:
    return {j: Fraction(p) for j, p in zip(build_diagram(v, w).weight_ids(), PRIMES)}


def _member(v: str, w: str, tropical: bool):
    v, w = perm_from_str(v), perm_from_str(w)
    a = _prime_weights(v, w)
    if tropical:
        return trop_phi(v, w, {j: Trop(x) for j, x in a.items()})
    return phi(v, w, a)


def input_files() -> dict[str, dict]:
    files = {
        "weights.json": {"1": "2", "2": "3", "4": "5"},
        "member.json": _member("1324", "4213", False).to_json_dict(),
        "trop-member.json": _member("1324", "4213", True).to_json_dict(),
        # S5 top cell: negative, zero and positive tropical weights
        "s5-mixed-weights.json": {
            "1": "-3", "2": "0", "3": "5/2", "4": "-1/3", "5": "7",
            "6": "0", "7": "-2", "8": "4", "9": "1", "10": "-5/4"},
        "s5-trop-member.json": _member("12345", "54321", True).to_json_dict(),
        "exponent.json": {"n": 2, "coords": {"1": "1e10000000"}},
        "trop-exponent.json": {"n": 2, "mode": "tropical",
                               "coords": {"1": "1e10000000"}},
        "exponent-weights.json": {"1": "1e10000000"},
    }
    for v, w in [("35241", "54231"), ("32154", "54231")]:
        a = _prime_weights(perm_from_str(v), perm_from_str(w))
        files[f"s5-{v}-weights.json"] = {str(j): str(x) for j, x in a.items()}
    for name, v, w, tropical, edit, index in EDITED:
        vec = _member(v, w, tropical)
        if edit == "delete":
            del vec.coords[index]
        elif edit == "insert":
            block = vec.support()[len(index)]
            assert index not in block and min(block) < index < max(block)
            vec.coords[index] = vec.one
        elif tropical:
            vec.coords[index] = Trop(-vec.coords[index].value)
        else:
            vec.coords[index] = -vec.coords[index]
        files[name] = vec.to_json_dict()
        if name == "cell-support-not-flag-matroid.json":
            cell = identify_cell(vec.support(), vec.n)
            assert index not in s_vw(*cell)
            assert not flag_matroid_check(vec.support())
        if edit == "insert":
            try:
                identify_cell(vec.support(), vec.n)
            except ValueError as exc:
                assert "no Gale extremes" in str(exc)
            else:
                raise AssertionError(f"{name}: the support has Gale extremes")
    return files


def _run(files: dict[str, dict], argvs):
    """Write ``files`` to a temporary directory and run each argv there;
    yields (argv, exit code, stdout)."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in files.items():
            (pathlib.Path(tmp) / name).write_text(json.dumps(obj, sort_keys=True))
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run([str(pathlib.Path(tmp) / a) if a in files else a
                            for a in argv])
            yield argv, code, buf.getvalue()


def capture() -> None:
    files = input_files()
    cases = [{"argv": argv, "exit": code, "stdout": out}
             for argv, code, out in _run(files, COMMANDS)]
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"files": files, "cases": cases},
                              indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {OUT}")


def check() -> int:
    """Replay the corpus file; 1 at the first case whose exit code or
    stdout differs, else 0."""
    corpus = json.loads(OUT.read_text())
    cases = corpus["cases"]
    replayed = _run(corpus["files"], [case["argv"] for case in cases])
    for case, (argv, code, out) in zip(cases, replayed):
        if (code, out) != (case["exit"], case["stdout"]):
            print(f"differs: {' '.join(argv)} (exit {code}, "
                  f"expected {case['exit']})", file=sys.stderr)
            return 1
    print(f"{len(cases)} cases replay byte-identically")
    return 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help=f"replay {OUT.relative_to(ROOT)} instead of "
                         "rewriting it; exit 1 on the first difference")
    if ap.parse_args().check:
        raise SystemExit(check())
    capture()


if __name__ == "__main__":
    main()
