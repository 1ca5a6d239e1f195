#!/usr/bin/env python3
"""
Print the code lines of each module in src/tnnflag and their total: the
lines that hold a token other than a comment, leaving out blank lines,
comments and the docstrings of modules, classes and functions.

    python3 scripts/code_lines.py [SRC_DIR]

SRC_DIR defaults to src/tnnflag next to this script's directory. Only
the standard library's ``ast`` and ``tokenize`` are used.
"""

import ast
import pathlib
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings in ``tree`` span."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(path: pathlib.Path) -> int:
    source = path.read_text()
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[0]) if argv else \
        pathlib.Path(__file__).resolve().parent.parent / "src" / "tnnflag"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
