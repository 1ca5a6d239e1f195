#!/usr/bin/env python3
"""
Census of extremal indices across cells.

For each Bruhat pair v <= w of S_n, count the extremal indices of the cell
support and the independent generating subset, and check the closed-form
count C(n,2) + n on the top cell (counting the full set {1..n} once, by
the coordinate-exclusion convention). Prints a per-dimension summary table
and the top-cell chains.
"""

import argparse
from collections import Counter

from tnnflag.extremal import cell_support, extremal_indices, s_vw
from tnnflag.perms import bruhat_pairs, identity, length, longest_element


def census(n: int) -> None:
    pairs = bruhat_pairs(n)
    print(f"n={n}: {len(pairs)} cells")

    by_dim: dict[int, Counter] = {}
    for v, w in pairs:
        dim = length(w) - length(v)
        chains = extremal_indices(cell_support(v, w))
        n_ext = sum(len(ch.chain) for ch in chains)
        n_gen = len(s_vw(v, w))
        assert n_gen == (n - 1) + dim, (v, w)
        by_dim.setdefault(dim, Counter())[n_ext] += 1

    print(f"{'dim':>4} {'cells':>6}  extremal-count distribution")
    for dim in sorted(by_dim):
        dist = " ".join(f"{k}x{c}" for k, c in sorted(by_dim[dim].items()))
        print(f"{dim:>4} {sum(by_dim[dim].values()):>6}  {dist}")

    chains = extremal_indices(cell_support(identity(n), longest_element(n)))
    total = sum(len(ch.chain) for ch in chains)
    expected = n * (n - 1) // 2 + n
    print(f"top cell: {total} proper extremal indices "
          f"(+1 for the full set = {total + 1}, expected {expected})")
    for ch in chains:
        pretty = " -> ".join("{" + ",".join(map(str, I)) + "}" for I in ch.chain)
        print(f"  size {ch.size}: {pretty}")
    assert total + 1 == expected


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-n", type=int, nargs="+", default=[3, 4],
                    help="symmetric group sizes to sweep (default: 3 4)")
    args = ap.parse_args()
    for n in args.n:
        census(n)
        print()


if __name__ == "__main__":
    main()
