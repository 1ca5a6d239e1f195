#!/usr/bin/env python3
"""
Run verify's per-cell checks over every cell of S_N, with one draw each,
and print the cell count and the wall time:

    PYTHONPATH=src python3 scripts/run_verify.py --full 5

For the report of one size (every cell for n <= 4, the extreme cells plus
a seeded sample above), run `tnnflag --seed S verify N > file` instead.
"""

import argparse
import time

from tnnflag.oracle import _verify_cell
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
    ap.add_argument("--full", type=int, metavar="N", required=True,
                    help="verify every cell of S_N with 1 draw and print "
                         "the wall time")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.full < 2:
        ap.error("--full needs N >= 2")
    verify_full(args.full, args.seed)


if __name__ == "__main__":
    main()
