"""Byte-identity guard for the CLI: every command of the golden corpus in
tests/data/cli_corpus.json must reproduce its captured exit code and
stdout exactly. Regenerate the corpus with scripts/cli_corpus.py only when
an output change is intended."""

import contextlib
import io
import json
import pathlib

import pytest

from tnnflag.cli import run

CORPUS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_corpus.json").read_text())


@pytest.mark.parametrize("case", CORPUS["cases"],
                         ids=lambda c: " ".join(c["argv"]))
def test_cli_output_matches_corpus(case, tmp_path):
    files = CORPUS["files"]
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj, sort_keys=True))
    argv = [str(tmp_path / a) if a in files else a for a in case["argv"]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    assert (code, buf.getvalue()) == (case["exit"], case["stdout"])
