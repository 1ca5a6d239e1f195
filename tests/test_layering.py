"""Library code never imports from the oracle: only ``oracle`` itself and
the ``cli`` (whose ``verify`` checks the library against it) may."""

import ast
import pathlib

import pytest

import tnnflag

PACKAGE = pathlib.Path(tnnflag.__file__).parent
MAY_IMPORT_ORACLE = {"oracle", "cli"}


def _imported_modules(tree: ast.AST):
    """Absolute or package-relative names of every module imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py"))
             if p.stem not in MAY_IMPORT_ORACLE], ids=lambda p: p.stem)
def test_library_does_not_import_oracle(path):
    names = _imported_modules(ast.parse(path.read_text()))
    assert not [name for name in names
                if "oracle" in name.lstrip(".").split(".")], path.name
