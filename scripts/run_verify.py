#!/usr/bin/env python3
"""
Run the oracle-backed verification report for a range of group sizes and
write each report to a JSON file (or stdout with --stdout).

Equivalent to `tnnflag verify N` per size; n <= 4 runs the full suite over
every cell, n = 5 checks the extreme cells plus a seeded sample.

With --full N it instead runs the same per-cell checks over every cell of
S_N, with one draw each, and prints the cell count and the wall time:

    PYTHONPATH=src python3 scripts/run_verify.py --full 5
"""

import argparse
import contextlib
import io
import pathlib
import time

from tnnflag.cli import _verify_cell, run
from tnnflag.perms import bruhat_pairs


def verify_full(n: int, seed: int) -> None:
    """Run ``_verify_cell`` with one draw on every cell of S_n; an
    AssertionError names the failing check."""
    start = time.perf_counter()
    pairs = bruhat_pairs(n)
    for v, w in pairs:
        _verify_cell(v, w, seed, 1)
    print(f"verified all {len(pairs)} cells of S{n}, 1 draw each, seed "
          f"{seed}: {time.perf_counter() - start:.1f} s")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-n", type=int, nargs="+", default=[3, 4],
                    help="symmetric group sizes to verify (default: 3 4)")
    ap.add_argument("--full", type=int, metavar="N",
                    help="verify every cell of S_N with 1 draw and print "
                         "the wall time (ignores -n)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="reports",
                    help="directory for verify-report JSON files")
    ap.add_argument("--stdout", action="store_true",
                    help="print reports instead of writing files")
    args = ap.parse_args()
    if args.full is not None:
        if args.full < 2:
            ap.error("--full needs N >= 2")
        verify_full(args.full, args.seed)
        return

    out_dir = pathlib.Path(args.out_dir)
    for n in args.n:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(["--seed", str(args.seed), "verify", str(n)])
        if code != 0:
            raise SystemExit(f"verify {n} failed with exit code {code}")
        if args.stdout:
            print(buf.getvalue(), end="")
        else:
            out_dir.mkdir(parents=True, exist_ok=True)
            target = out_dir / f"verify_n{n}_seed{args.seed}.json"
            target.write_text(buf.getvalue())
            print(f"wrote {target}")


if __name__ == "__main__":
    main()
