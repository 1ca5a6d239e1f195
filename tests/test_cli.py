import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tnnflag.cli import run
from tnnflag.plucker import phi

EX_V, EX_W = "1324", "4213"
EX_A = {1: Fraction(2), 2: Fraction(3), 4: Fraction(5)}
ROOT = pathlib.Path(__file__).resolve().parent.parent
SUPPORT_MISMATCH = ("error: verify failed at (123, 123): support mismatch "
                    "at size 1 for (123,123)\n")


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_cell_identity(capsys):
    assert run(["cell", "1234", "1234"]) == 0
    out = _json_out(capsys)
    assert out["dimension"] == 0 and out["edges"] == []


def test_cell_example_cell(capsys):
    assert run(["cell", EX_V, EX_W]) == 0
    out = _json_out(capsys)
    assert out["dimension"] == 3
    assert out["weight_ids"] == [1, 2, 4]
    assert out["source_labels_bottom_to_top"] == [1, 3, 2, 4]


def test_cell_rejects_non_bruhat(capsys):
    assert run(["cell", "213", "132"]) == 2
    assert "Bruhat" in capsys.readouterr().err


def test_cell_respects_max_n(capsys):
    assert run(["--max-n", "3", "cell", "12345", "12345"]) == 2


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_max_n_bounds_n_itself(capsys):
    assert run(["--max-n", "4", "cell", "12345", "54321"]) == 2
    assert "--max-n=4" in _one_line_error(capsys)
    assert run(["--max-n", "5", "cell", "12345", "54321"]) == 0
    assert _json_out(capsys)["dimension"] == 10


def test_malformed_permutation_exits_2(capsys):
    assert run(["cell", "1x3", "123"]) == 2
    assert "bad permutation" in _one_line_error(capsys)


def test_zero_denominator_coordinate_exits_2(tmp_path, capsys):
    bad = tmp_path / "zero-den.json"
    for mode in ("classical", "tropical"):
        bad.write_text(json.dumps({"n": 3, "mode": mode,
                                   "coords": {"1": "1/0"}}))
        assert run(["trop-decide" if mode == "tropical" else "decide",
                    str(bad)]) == 2
        assert "coordinate 1: zero denominator in '1/0'" in \
            _one_line_error(capsys)


@pytest.mark.parametrize("tropical", [False, True])
def test_zero_denominator_weight_exits_2(tmp_path, capsys, tropical):
    weights = tmp_path / "zero-den.json"
    weights.write_text(json.dumps({"1": "1/0", "2": "3", "4": "5"}))
    argv = ["plucker", EX_V, EX_W, "--weights", str(weights)]
    assert run(argv + ["--tropical"] * tropical) == 2
    assert "weight 1: zero denominator in '1/0'" in _one_line_error(capsys)


@pytest.mark.parametrize("tropical", [False, True])
@pytest.mark.parametrize("value", [2, None, True, 1.5, ["2"], {"x": "2"}])
def test_non_string_weight_exits_2(tmp_path, capsys, tropical, value):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"1": value, "2": "3", "4": "5"}))
    argv = ["plucker", EX_V, EX_W, "--weights", str(weights)]
    assert run(argv + ["--tropical"] * tropical) == 2
    assert f"bad weights file {weights}" in _one_line_error(capsys)


@pytest.mark.parametrize("n", [0, -2])
@pytest.mark.parametrize("command", ["decide", "trop-decide", "extremal"])
def test_vector_n_below_1_exits_2(tmp_path, capsys, command, n):
    vec = tmp_path / "v.json"
    vec.write_text(json.dumps({"n": n, "mode": "tropical"
                               if command == "trop-decide" else "classical"}))
    assert run([command, str(vec)]) == 2
    assert f"n={n}" in _one_line_error(capsys)


@pytest.mark.parametrize("n", [2.7, True, "3"])
@pytest.mark.parametrize("command", ["decide", "trop-decide", "extremal"])
def test_vector_n_not_an_integer_exits_2(tmp_path, capsys, command, n):
    vec = tmp_path / "v.json"
    vec.write_text(json.dumps({"n": n, "coords": {"1": "1"}, "mode":
                               "tropical" if command == "trop-decide"
                               else "classical"}))
    assert run([command, str(vec)]) == 2
    assert f"n must be a JSON integer, got {n!r}" in _one_line_error(capsys)


@pytest.mark.parametrize("command", ["decide", "trop-decide", "extremal"])
def test_vector_without_n_exits_2(tmp_path, capsys, command):
    vec = tmp_path / "v.json"
    vec.write_text(json.dumps({"coords": {}, "mode": "tropical"
                               if command == "trop-decide" else "classical"}))
    assert run([command, str(vec)]) == 2
    assert _one_line_error(capsys) == \
        f"error: bad vector file {vec}: n must be a JSON integer, got None\n"


@pytest.mark.parametrize("value", [2, None, True, ["1"]])
@pytest.mark.parametrize("mode", ["classical", "tropical"])
def test_non_string_coordinate_exits_2(tmp_path, capsys, mode, value):
    vec = tmp_path / "v.json"
    vec.write_text(json.dumps({"n": 3, "mode": mode, "coords": {"1": value}}))
    assert run(["trop-decide" if mode == "tropical" else "decide",
                str(vec)]) == 2
    assert f"coordinate 1: expected a string, got {value!r}" in \
        _one_line_error(capsys)


# Python refuses int <-> str conversions of more than 4300 digits (its
# default limit), and Fraction expands exponent notation digit by digit
BIG_INT = "1" + "0" * 5000
LONG = "7" * 2500
LONG_PLUS_1 = "7" * 2499 + "8"      # coprime to LONG
# the full message for an input whose error names what failed: the digit
# limit, or the coordinate or weight that does not parse
EXP = "exponent notation is not accepted: '1e10000000'"
TOO_LONG = ("cannot render the result: a number has more than "
            f"{sys.get_int_max_str_digits()} digits")
TOO_LONG_JSON = f"a number has more than {sys.get_int_max_str_digits()} digits"
NAMED = {"long-weights.json": TOO_LONG, "long-coords.json": TOO_LONG,
         "long-member.json": TOO_LONG, "long-trop-member.json": TOO_LONG,
         "big-n.json": f"big-n.json: {TOO_LONG_JSON}",
         "big-weight.json": f"big-weight.json: {TOO_LONG_JSON}",
         "exp.json": f"coordinate 1: {EXP}",
         "trop-exp.json": f"coordinate 1: {EXP}",
         "exp-weight.json": f"weight 1: {EXP}"}


def _big_inputs(tmp_path) -> dict[str, str]:
    rng = random.Random(1)

    def digits():
        return str(rng.randrange(10**3999, 10**4000))

    files = {
        "big-n.json": f'{{"n": {BIG_INT}, "coords": {{}}}}',
        "big-weight.json": f'{{"1": {BIG_INT}}}',
        "long-weights.json": json.dumps({"1": LONG, "2": LONG, "3": LONG}),
        "long-coords.json": json.dumps({"n": 3, "coords": {
            k: f"{digits()}/{digits()}"
            for k in ("1", "2", "3", "1,2", "1,3", "2,3")}}),
        # members whose one weight has about 5000 digits: LONG * LONG_PLUS_1,
        # and tropically 1/LONG_PLUS_1 - 1/LONG
        "long-member.json": json.dumps({"n": 2, "coords": {
            "1": f"1/{LONG}", "2": LONG_PLUS_1}}),
        "long-trop-member.json": json.dumps({"n": 2, "mode": "tropical", "coords": {
            "1": f"1/{LONG}", "2": f"1/{LONG_PLUS_1}"}}),
        "exp.json": json.dumps({"n": 2, "coords": {"1": "1e10000000"}}),
        "trop-exp.json": json.dumps({"n": 2, "mode": "tropical",
                                     "coords": {"1": "1e10000000"}}),
        "exp-weight.json": json.dumps({"1": "1e10000000"}),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return {name: str(tmp_path / name) for name in files}


@pytest.mark.parametrize("argv, message", [
    # a JSON integer literal over the digit limit
    (["decide", "big-n.json"], "cannot read JSON"),
    (["extremal", "big-n.json"], "cannot read JSON"),
    (["plucker", "12", "21", "--weights", "big-weight.json"],
     "cannot read JSON"),
    # a result with a number over the digit limit: the coordinates, or the
    # reconstructed coordinate of a mismatch witness
    (["plucker", "123", "321", "--weights", "long-weights.json"],
     "cannot render the result"),
    (["decide", "long-coords.json"], "cannot render the result"),
    # exponent notation
    (["decide", "exp.json"], "exponent notation is not accepted"),
    (["trop-decide", "trop-exp.json"], "exponent notation is not accepted"),
    (["plucker", "12", "21", "--weights", "exp-weight.json"],
     "exponent notation is not accepted"),
    (["plucker", "12", "21", "--weights", "exp-weight.json", "--tropical"],
     "exponent notation is not accepted"),
    # a member's weight over the digit limit
    (["decide", "long-member.json"], "cannot render the result"),
    (["trop-decide", "long-trop-member.json"], "cannot render the result"),
])
def test_large_numbers_exit_2_quickly(tmp_path, capsys, argv, message):
    files = _big_inputs(tmp_path)
    start = time.perf_counter()
    code = run([files.get(a, a) for a in argv])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    assert code == 2 and out.out == "", out
    assert out.err.startswith("error: ") and out.err.count("\n") == 1, out.err
    assert message in out.err and "Traceback" not in out.err
    assert all(NAMED.get(a, "") in out.err for a in argv), out.err
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("content, kind", [
    (f'{{"n": {BIG_INT}, "coords": {{}}}}'.encode(), ValueError),
    (b'{"n": 3, "coords": {', json.JSONDecodeError),
    (b'{"n": 3, "coords": {"1": "\xff"}}', UnicodeDecodeError),
], ids=["digit-limit", "syntax", "undecodable"])
def test_unreadable_json_is_named(tmp_path, capsys, content, kind):
    """An integer literal over the digit limit is named as such, without
    Python's advice; a syntax error and undecodable bytes keep the reader's
    own text."""
    path = tmp_path / "v.json"
    path.write_bytes(content)
    with pytest.raises(ValueError) as raised, open(path) as fh:
        json.load(fh)
    assert type(raised.value) is kind
    reason = TOO_LONG_JSON if kind is ValueError else str(raised.value)
    assert run(["decide", str(path)]) == 2
    assert _one_line_error(capsys) == \
        f"error: cannot read JSON from {path}: {reason}\n"


def test_empty_permutation_exits_2(capsys):
    assert run(["cell", "", ""]) == 2
    assert "n=0" in _one_line_error(capsys)


@pytest.mark.parametrize("n", ["0", "-3"])
def test_relations_n_below_1_exits_2(capsys, n):
    assert run(["relations", n]) == 2
    assert f"n={n}" in _one_line_error(capsys)


def test_verify_keeps_its_own_lower_bound(capsys):
    assert run(["verify", "1"]) == 2
    assert "verify needs n >= 2" in _one_line_error(capsys)


def test_verify_refuses_n_above_the_oracles_limit(capsys, monkeypatch):
    """The limit is checked before any Bruhat pair is listed."""
    def no_listing(n):
        raise AssertionError(f"verify listed the Bruhat pairs of S{n}")
    monkeypatch.setattr("tnnflag.cli.bruhat_pairs", no_listing)
    assert run(["--max-n", "8", "verify", "8"]) == 2
    assert "verify needs n <= 7" in _one_line_error(capsys)


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_verify_sample_by_rank_matches_the_listed_pairs(n, seed):
    from tnnflag.oracle import _sample_pairs
    from tnnflag.perms import bruhat_pairs
    pairs = bruhat_pairs(n)
    assert _sample_pairs(n, seed) == \
        (len(pairs), random.Random(seed).sample(pairs, min(20, len(pairs))))


def test_verify_5_lists_no_pairs(capsys, monkeypatch):
    def no_listing(n):
        raise AssertionError(f"verify listed the Bruhat pairs of S{n}")
    monkeypatch.setattr("tnnflag.cli.bruhat_pairs", no_listing)
    assert run(["verify", "5"]) == 0
    out = _json_out(capsys)
    assert out["total_cells"] == 3781 and out["cells_checked"] == 21


@pytest.mark.parametrize("command", ["decide", "trop-decide", "extremal"])
def test_non_object_vector_file_exits_2(tmp_path, capsys, command):
    bad = tmp_path / "array.json"
    bad.write_text(json.dumps([{"n": 3, "coords": {}}]))
    assert run([command, str(bad)]) == 2
    assert "not a JSON object" in _one_line_error(capsys)


def test_plucker_and_decide_roundtrip(tmp_path, capsys):
    weights = tmp_path / "a.json"
    weights.write_text(json.dumps({"1": "2", "2": "3", "4": "5"}))
    assert run(["plucker", EX_V, EX_W, "--weights", str(weights)]) == 0
    vec = capsys.readouterr().out
    vector_file = tmp_path / "vec.json"
    vector_file.write_text(vec)

    assert run(["decide", str(vector_file)]) == 0
    cert = _json_out(capsys)
    assert cert["verdict"] == "member"
    assert cert["v"] == EX_V and cert["w"] == EX_W
    assert cert["weights"] == {"1": "2", "2": "3", "4": "5"}


def test_decide_non_member_exits_1(tmp_path, capsys):
    p = phi((1, 3, 2, 4), (4, 2, 1, 3), EX_A)
    p.coords[(2, 3)] = -p.coords[(2, 3)]
    vector_file = tmp_path / "neg.json"
    vector_file.write_text(json.dumps(p.to_json_dict()))
    assert run(["decide", str(vector_file)]) == 1
    cert = _json_out(capsys)
    assert cert["verdict"] == "non-member"
    assert cert["witness"]["type"] == "negative-coordinate"


def test_trop_decide(tmp_path, capsys):
    weights = tmp_path / "x.json"
    weights.write_text(json.dumps({"1": "2", "2": "3", "4": "5"}))
    assert run(["plucker", EX_V, EX_W, "--weights", str(weights),
                "--tropical"]) == 0
    vec = capsys.readouterr().out
    vector_file = tmp_path / "trop.json"
    vector_file.write_text(vec)
    assert run(["trop-decide", str(vector_file)]) == 0
    cert = _json_out(capsys)
    assert cert["verdict"] == "member"
    # mode mismatch is malformed input, not a verdict
    assert run(["decide", str(vector_file)]) == 2


def test_extremal_rejects_chains_that_are_not_flags(tmp_path, capsys):
    # basis exchange and containment hold, but {2} is not in {1,3}
    vec = tmp_path / "v.json"
    vec.write_text(json.dumps({"n": 3, "coords": {
        "2": "1", "3": "1", "1,3": "1", "2,3": "1"}}))
    assert run(["extremal", str(vec)]) == 2
    assert "Gale-extreme indices do not form a flag" in _one_line_error(capsys)


def test_extremal_subcommand(tmp_path, capsys):
    p = phi((1, 3, 2, 4), (4, 2, 1, 3), EX_A)
    vector_file = tmp_path / "vec.json"
    vector_file.write_text(json.dumps(p.to_json_dict()))
    assert run(["extremal", str(vector_file)]) == 0
    out = _json_out(capsys)
    assert out["chains"] == [
        {"size": 1, "chain": ["1", "3"]},
        {"size": 2, "chain": ["1,3", "2,3"]},
        {"size": 3, "chain": ["1,2,3", "1,3,4", "2,3,4"]},
    ]


def test_relations_subcommand(capsys):
    assert run(["relations", "3", "--three-term"]) == 0
    out = _json_out(capsys)
    assert out["count"] == 1
    assert out["relations"][0]["terms"] == [
        [1, "1", "2,3"], [-1, "2", "1,3"], [1, "3", "1,2"]]


def test_malformed_inputs(tmp_path, capsys):
    assert run(["decide", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["decide", str(bad)]) == 2
    bad.write_text(json.dumps({"n": 3, "mode": "classical",
                               "coords": {"1,2,3": "1"}}))
    assert run(["decide", str(bad)]) == 2
    bad.write_text(json.dumps({"n": 3, "mode": "classical", "coords": ["1"]}))
    assert run(["decide", str(bad)]) == 2
    capsys.readouterr()
    # each message names the field, not Python's own error
    for coords, message in (([], "coords must be a JSON object"),
                            ({"": "1"}, "the index key is empty")):
        bad.write_text(json.dumps({"n": 3, "coords": coords}))
        assert run(["decide", str(bad)]) == 2
        assert f"bad vector file {bad}: {message}\n" in _one_line_error(capsys)


@pytest.mark.parametrize("order", [1, -1])
@pytest.mark.parametrize("keys", [("1", "01"), ("1,2", "1, 2"), ("2", "+2")])
@pytest.mark.parametrize("command", ["decide", "trop-decide", "extremal"])
def test_keys_naming_one_index_exit_2(tmp_path, capsys, command, keys, order):
    """Two keys that parse to the same index are rejected whichever comes
    first; before, the later one silently won."""
    first, second = keys[::order]
    vec = tmp_path / "v.json"
    vec.write_text(json.dumps({
        "n": 3, "mode": "tropical" if command == "trop-decide" else "classical",
        "coords": {first: "1", second: "2", "1,3": "1", "2,3": "1", "3": "1"}}))
    assert run([command, str(vec)]) == 2
    assert f"keys {first!r} and {second!r} name the same index\n" in \
        _one_line_error(capsys)


@pytest.mark.parametrize("tropical", [False, True])
@pytest.mark.parametrize("ids", [("1", "01"), ("01", "1"), ("4", " 4")])
def test_keys_naming_one_weight_id_exit_2(tmp_path, capsys, tropical, ids):
    weights = tmp_path / "w.json"
    others = {j: val for j, val in (("1", "2"), ("2", "3"), ("4", "5"))
              if int(j) != int(ids[0])}
    weights.write_text(json.dumps({ids[0]: "2", ids[1]: "3", **others}))
    argv = ["plucker", EX_V, EX_W, "--weights", str(weights)]
    assert run(argv + ["--tropical"] * tropical) == 2
    assert f"keys {ids[0]!r} and {ids[1]!r} name the same weight id\n" in \
        _one_line_error(capsys)


@pytest.mark.parametrize("key", ["a", "1,,2"])
def test_non_integer_index_key_is_named(tmp_path, capsys, key):
    vec = tmp_path / "v.json"
    vec.write_text(json.dumps({"n": 3, "coords": {key: "1"}}))
    assert run(["decide", str(vec)]) == 2
    assert f"bad vector file {vec}: index key {key!r} does not parse as " \
        "comma-separated integers\n" in _one_line_error(capsys)


@pytest.mark.parametrize("tropical", [False, True])
def test_non_integer_weight_id_is_named(tmp_path, capsys, tropical):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"x": "1", "2": "1", "4": "1"}))
    argv = ["plucker", EX_V, EX_W, "--weights", str(weights)]
    assert run(argv + ["--tropical"] * tropical) == 2
    assert f"bad weights file {weights}: weight id 'x' does not parse as an " \
        "integer\n" in _one_line_error(capsys)


def test_output_is_byte_identical_across_runs(capsys):
    run(["cell", EX_V, EX_W])
    first = capsys.readouterr().out
    run(["cell", EX_V, EX_W])
    assert capsys.readouterr().out == first


def _python(*args, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """This interpreter run on ``args``, with the checkout's ``src`` on
    its path; stdout is captured unless another ``stdout`` is given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          stdout=stdout, stderr=subprocess.PIPE, text=True)


def test_failed_verify_check_exits_1_with_one_error_line(capsys, monkeypatch):
    """An oracle that disagrees fails the first cell's first check: no
    report and no traceback, one error line naming the cell and the
    check."""
    monkeypatch.setattr("tnnflag.oracle.support_oracle",
                        lambda v, w, k: set())
    assert run(["verify", "3"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == SUPPORT_MISMATCH


def test_failed_verify_check_exits_1_under_python_O():
    """The checks are not ``assert`` statements, which ``-O`` strips."""
    code = ("import sys\n"
            "import tnnflag.oracle\n"
            "from tnnflag.cli import run\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit(3)\n"
            "tnnflag.oracle.support_oracle = lambda v, w, k: set()\n"
            "sys.exit(run(['verify', '3']))\n")
    done = _python("-O", "-c", code)
    assert (done.returncode, done.stdout, done.stderr) == \
        (1, "", SUPPORT_MISMATCH)


def test_verify_check_raising_other_errors_exits_1_with_one_error_line(
        capsys, monkeypatch):
    """A check that raises something other than an AssertionError is
    reported the same way, its message prefixed with its type's name."""
    def stuck(values, cell, vector_type):
        raise ValueError("three-term propagation stuck at (1,) "
                         "(no usable relation)")

    monkeypatch.setattr("tnnflag.oracle._propagate", stuck)
    assert run(["verify", "3"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: verify failed at (123, 123): ValueError: "
                       "three-term propagation stuck at (1,) "
                       "(no usable relation)\n")


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


UNWRITABLE = "error: cannot write the output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv", [
    ["cell", EX_V, EX_W],
    ["plucker", EX_V, EX_W, "--weights", "w.json"],
    ["plucker", EX_V, EX_W, "--weights", "w.json", "--tropical"],
    ["extremal", "v.json"],
    ["decide", "v.json"],
    ["trop-decide", "t.json"],
    ["relations", "4"],
    ["relations", "4", "--three-term"],
    ["verify", "2"],
    ["--help"],                 # argparse alone swallows the failed write
    ["decide", "--help"],
], ids=" ".join)
def test_unwritable_stdout_exits_2_with_one_error_line(argv, capsys,
                                                       monkeypatch, tmp_path):
    files = {"w.json": {"1": "2", "2": "3", "4": "5"},
             "v.json": {"n": 2, "coords": {"1": "1", "2": "1"}},
             "t.json": {"n": 2, "mode": "tropical",
                        "coords": {"1": "0", "2": "0"}}}
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.setattr("sys.stdout", _BrokenPipe())
    assert run([str(tmp_path / a) if a in files else a for a in argv]) == 2
    assert capsys.readouterr().err == UNWRITABLE


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a /dev/full device")
def test_full_stdout_exits_2_without_a_traceback():
    with open("/dev/full", "w") as full:
        done = _python("-m", "tnnflag", "cell", EX_V, EX_W, stdout=full)
    assert (done.returncode, done.stderr) == \
        (2, "error: cannot write the output: [Errno 28] No space left on "
            "device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a /dev/full device")
@pytest.mark.parametrize("argv", [["--help"], ["decide", "--help"]],
                         ids=" ".join)
def test_help_to_a_full_stdout_exits_2_without_a_traceback(argv):
    """argparse alone would swallow the failed write and exit 0."""
    with open("/dev/full", "w") as full:
        done = _python("-m", "tnnflag", *argv, stdout=full)
    assert (done.returncode, done.stderr) == \
        (2, "error: cannot write the output: [Errno 28] No space left on "
            "device\n")


def test_run_verify_script_covers_every_s3_cell():
    done = _python("scripts/run_verify.py", "--full", "3")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("verified all 19 cells of S3, 1 draw each, "
                                  "seed 0: "), done.stdout


def test_verify_small(capsys):
    assert run(["--seed", "1", "verify", "2"]) == 0
    out = _json_out(capsys)
    assert out["depth"] == "full"
    assert out["cells_checked"] == out["total_cells"] == 3
    assert out["top_cell_extremal"]["with_full_set"] == \
        out["top_cell_extremal"]["expected_with_full_set"]


# ---------------------------------------------------------------------------
# Contract fuzz: arbitrary JSON never escapes as an exception
# ---------------------------------------------------------------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6)
    | st.sampled_from(["1", "-2", "3/4", "1/0", "inf", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
INDEX_KEYS = st.sampled_from(["1", "2", "3", "1,2", "1,3", "2,3", "1,2,3",
                              "1,4", "0", "", "a", "2,1", "1,1"])
N = st.integers(-2, 5) | JSON
VECTOR = st.fixed_dictionaries(
    {"n": N, "coords": st.dictionaries(INDEX_KEYS, JSON, max_size=6)
     | JSON},
    optional={"mode": st.sampled_from(["classical", "tropical"]) | JSON},
) | JSON
WEIGHTS = st.dictionaries(st.sampled_from(["1", "2", "3", "4", "0", "x"]),
                          JSON, max_size=4) | JSON
CELLS = st.sampled_from([("", ""), ("1", "1"), ("12", "21"), ("123", "321"),
                         (EX_V, EX_W), ("213", "132")])


def _run_captured(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["decide", "trop-decide", "extremal", "plucker",
                        "plucker-tropical"]), VECTOR, WEIGHTS, CELLS)
def test_cli_contract_on_arbitrary_json(command, vector, weights, cell):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input.json"
        if command.startswith("plucker"):
            path.write_text(json.dumps(weights))
            argv = ["plucker", *cell, "--weights", str(path)]
            argv += ["--tropical"] * command.endswith("tropical")
        else:
            path.write_text(json.dumps(vector))
            argv = [command, str(path)]
        code, err = _run_captured(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# Contract fuzz: arbitrary argv never escapes as an exception
# ---------------------------------------------------------------------------

# every token that parses as an int is at most 4, so no draw reaches a
# large n whatever order the tokens end up in; two draws in three are
# plain integers
INT_TOKEN = st.one_of(st.integers(-3, 4).map(str), st.integers(2, 4).map(str),
                      st.sampled_from(["", "x", "2.0", "+3", "-0", " 4 ",
                                       "٤", "0x2", "1e1", "--1"]))
PERM_TOKEN = st.sampled_from(
    ["", "1", "12", "21", "123", "321", "213", "132", "1234", "4321",
     EX_V, EX_W, "1,3,2", "1,,2", "3,2,1,", "12a", "0", "11", "-1"]
) | st.text(max_size=4)
STRAY = st.sampled_from(
    ["--three-term", "--tropical", "--weights", "--seed", "--max-n",
     "--max-n=3", "--seed=x", "-h", "--", "-", "--bogus", "extra", "3",
     "54321", "cell", "verify"])


@st.composite
def _argv(draw) -> list[str]:
    argv = []
    for option in draw(st.lists(st.sampled_from(["--seed", "--max-n"]),
                                max_size=2, unique=True)):
        argv += [option, draw(INT_TOKEN)]
    command = draw(st.sampled_from(["cell", "relations", "verify"]))
    if command == "cell":
        argv += [command, draw(PERM_TOKEN), draw(PERM_TOKEN)]
    else:
        argv += [command, draw(INT_TOKEN)]
        argv += ["--three-term"] * (command == "relations" and draw(st.booleans()))
    for token in draw(st.lists(STRAY, max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_cli_contract_on_arbitrary_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:       # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
