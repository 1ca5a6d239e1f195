"""
Command-line front end: batch access to the cell parameterization, the
membership deciders, the relation generator, and a self-verification
report. All output is canonical JSON (sorted keys) on stdout.

Exit codes: 0 success, 1 non-member verdict from a decide subcommand or
a failed ``verify`` check, 2 malformed input or output that cannot be
written.
"""

__all__ = ["main", "run"]

import argparse
import json
import sys

from .algebra import rat_from_str, trop_from_str
from .perms import (
    Perm, bruhat_leq, bruhat_pairs, identity, length, longest_element,
    perm_from_str, perm_to_str,
)
from .plucker import (
    PlueckerVector, TropPlueckerVector, generate_relations, index_to_str,
    _parse_keyed, _relation_json, phi, trop_phi,
)
from .extremal import cell_support, extremal_index_set, extremal_indices
from .membership import decide_tnn, decide_trop
from .wiring import build_diagram


def _emit(obj) -> None:
    _write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write(text: str, file=None) -> None:
    """Write text to ``file`` (stdout by default) and flush it; output that
    cannot be written is an error."""
    try:
        print(text, end="", file=file or sys.stdout, flush=True)
    except OSError as exc:      # a full device, a closed pipe
        raise _Malformed(f"cannot write the output: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """argparse, except that help which cannot be written is an error, as
    any other output is; argparse itself ignores it and exits 0."""

    def print_help(self, file=None) -> None:
        _write(self.format_help(), file)


def _perm(s: str) -> Perm:
    try:
        return perm_from_str(s)
    except ValueError as exc:
        raise _Malformed(f"bad permutation {s!r}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:    # ValueError: undecodable bytes
        raise _Malformed(f"cannot read JSON from {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _Malformed(f"cannot read JSON from {path}: {exc}") from exc
    except ValueError as exc:   # an integer literal over Python's digit limit
        raise _Malformed(f"cannot read JSON from {path}: a number has more "
                         f"than {sys.get_int_max_str_digits()} digits") from exc


def _render(make) -> dict:
    """The JSON form of the result that ``make()`` returns; a number too
    long for its text form (Python's int/str digit limit, 4300 digits by
    default) is reported as an error."""
    try:
        return make().to_json_dict()
    except ValueError as exc:
        raise _Malformed("cannot render the result: a number has more than "
                         f"{sys.get_int_max_str_digits()} digits") from exc


class _Malformed(Exception):
    """Malformed input, or output that cannot be written: one ``error:``
    line on stderr and exit 2."""


def _cell_pair(args) -> tuple[Perm, Perm]:
    v, w = _perm(args.v), _perm(args.w)
    if len(v) != len(w):
        raise _Malformed("v and w must have the same length")
    _guard_n(len(v), args)
    if not bruhat_leq(v, w):
        raise _Malformed(f"{perm_to_str(v)} is not <= {perm_to_str(w)} "
                         "in Bruhat order")
    return v, w


def _cmd_cell(args) -> int:
    v, w = _cell_pair(args)
    d = build_diagram(v, w)
    _emit({
        "v": perm_to_str(v),
        "w": perm_to_str(w),
        "dimension": length(w) - length(v),
        "weight_ids": list(d.weight_ids()),
        "source_labels_bottom_to_top": list(d.source_label),
        "edges": [{"weight_id": e.weight_id, "column": e.column,
                   "lower": e.lower, "upper": e.upper} for e in d.edges],
        "negative_segments": [{"strand": s.strand,
                               "columns": list(s.columns)}
                              for s in d.neg_segments],
    })
    return 0


def _cmd_plucker(args) -> int:
    v, w = _cell_pair(args)
    raw = _load_json(args.weights)
    if not (isinstance(raw, dict)
            and all(isinstance(val, str) for val in raw.values())):
        raise _Malformed(f"bad weights file {args.weights}: expected a JSON "
                         "object mapping weight id -> rational string")
    parse = trop_from_str if args.tropical else rat_from_str
    try:
        weights = _parse_keyed(raw, "weight", "weight id", _weight_id, parse)
        vec = (trop_phi if args.tropical else phi)(v, w, weights)
    except ValueError as exc:
        raise _Malformed(f"bad weights file {args.weights}: {exc}") from exc
    _emit(_render(lambda: vec))
    return 0


def _weight_id(key: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise ValueError(f"weight id {key!r} does not parse as an "
                         "integer") from None


def _load_vector(path: str):
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise _Malformed(f"bad vector file {path}: top level is not a JSON object")
    try:
        if obj.get("mode") == "tropical":
            return TropPlueckerVector.from_json_dict(obj)
        return PlueckerVector.from_json_dict(obj)
    except (KeyError, ValueError, TypeError, AttributeError,
            ZeroDivisionError) as exc:
        raise _Malformed(f"bad vector file {path}: {exc}") from exc


def _guard_n(n: int, args) -> None:
    if n < 1:
        raise _Malformed(f"n={n} is less than 1")
    if n > args.max_n:
        raise _Malformed(f"n={n} exceeds --max-n={args.max_n}")


def _cmd_extremal(args) -> int:
    p = _load_vector(args.vector)
    _guard_n(p.n, args)
    try:
        chains = extremal_indices(p)
    except ValueError as exc:
        raise _Malformed(str(exc)) from exc
    _emit({
        "n": p.n,
        "chains": [{"size": ch.size,
                    "chain": [index_to_str(I) for I in ch.chain]}
                   for ch in chains],
    })
    return 0


def _cmd_decide(args) -> int:
    p = _load_vector(args.vector)
    _guard_n(p.n, args)
    if args.tropical != isinstance(p, TropPlueckerVector):
        raise _Malformed("vector mode does not match the subcommand")
    decide = decide_trop if args.tropical else decide_tnn
    out = _render(lambda: decide(p))
    _emit(out)
    return 0 if out["verdict"] == "member" else 1


def _cmd_relations(args) -> int:
    _guard_n(args.n, args)
    rels = generate_relations(args.n, args.three_term)
    _emit({
        "n": args.n,
        "count": len(rels),
        "relations": [{"r": rel.r, "s": rel.s, **_relation_json(rel)}
                      for rel in rels],
    })
    return 0


def _cmd_verify(args) -> int:
    from .oracle import _MAX_N, _sample_pairs, _verify_cell

    n = args.n
    _guard_n(n, args)
    if n < 2:
        raise _Malformed("verify needs n >= 2")
    if n > _MAX_N:
        raise _Malformed(f"verify needs n <= {_MAX_N}, the oracles' limit")
    top = (identity(n), longest_element(n))
    if n <= 4:
        selected, depth, draws = bruhat_pairs(n), "full", 3
        total = len(selected)
    else:
        # cost guard: keep the extremes and a seeded sample of the rest
        total, sample = _sample_pairs(n, args.seed)
        selected, depth, draws = sorted({top, *sample}), "sampled", 1
    checked = []
    for v, w in selected:
        try:
            checked.append(_verify_cell(v, w, args.seed, draws))
        except Exception as exc:    # a failed check, or an error raised in one
            if not isinstance(exc, AssertionError):
                exc = f"{type(exc).__name__}: {exc}"
            print(f"error: verify failed at ({perm_to_str(v)}, "
                  f"{perm_to_str(w)}): {exc}", file=sys.stderr)
            return 1

    ext = extremal_index_set(cell_support(*top))
    _emit({
        "n": n,
        "depth": depth,
        "total_cells": total,
        "cells_checked": len(checked),
        "draws_per_cell": draws,
        "seed": args.seed,
        "top_cell_extremal": {
            "proper_index_count": len(ext),
            "with_full_set": len(ext) + 1,
            "expected_with_full_set": n * (n - 1) // 2 + n,
            "note": "the full set {1..n} is always a basis of the top flag "
                    "matroid but is not a projective coordinate, so it is "
                    "excluded from the per-size chains; counts that include "
                    "it add one",
        },
        "cells": checked,
    })
    return 0


def run(argv=None) -> int:
    ap = _Parser(
        prog="tnnflag",
        description="Exact computations on the nonnegative complete flag "
                    "variety and its tropicalization.")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for randomized verification (default 0)")
    ap.add_argument("--max-n", type=int, default=5,
                    help="largest permutation size n accepted by any "
                         "subcommand (default 5)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cell", help="diagram summary and cell dimension")
    p.add_argument("v")
    p.add_argument("w")
    p.set_defaults(fn=_cmd_cell)

    p = sub.add_parser("plucker", help="coordinates of a parameterized point")
    p.add_argument("v")
    p.add_argument("w")
    p.add_argument("--weights", required=True,
                   help="JSON file mapping weight id -> rational value")
    p.add_argument("--tropical", action="store_true")
    p.set_defaults(fn=_cmd_plucker)

    p = sub.add_parser("extremal", help="extremal index chains of a vector")
    p.add_argument("vector")
    p.set_defaults(fn=_cmd_extremal)

    p = sub.add_parser("decide", help="membership in the nonnegative flag variety")
    p.add_argument("vector")
    p.set_defaults(fn=_cmd_decide, tropical=False)

    p = sub.add_parser("trop-decide",
                       help="membership in the nonnegative flag Dressian")
    p.add_argument("vector")
    p.set_defaults(fn=_cmd_decide, tropical=True)

    p = sub.add_parser("relations", help="incidence relations for given n")
    p.add_argument("n", type=int)
    p.add_argument("--three-term", action="store_true")
    p.set_defaults(fn=_cmd_relations)

    p = sub.add_parser("verify", help="oracle-backed self-check over all cells")
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_verify)

    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except _Malformed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
