"""Library code never imports from the oracle: only ``oracle`` itself and
the ``cli`` (whose ``verify`` checks the library against it) may. Listing
every path collection is reference code in the same way: only ``wiring``,
which defines it, ``oracle`` and ``cli`` may use
``enumerate_path_collections``. Memory stays bounded: only the per-cell
and per-n tables named below may sit in an unbounded ``lru_cache``."""

import ast
import pathlib

import pytest

import tnnflag

PACKAGE = pathlib.Path(tnnflag.__file__).parent
MAY_IMPORT_ORACLE = {"oracle", "cli"}
MAY_ENUMERATE = {"oracle", "cli", "wiring"}
UNBOUNDED_CACHES = {"build_diagram", "generators", "generate_relations",
                    "_index_masks"}


def _imported_modules(tree: ast.AST):
    """Absolute or package-relative names of every module imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _modules_except(allowed):
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.stem not in allowed]


@pytest.mark.parametrize(
    "path", _modules_except(MAY_IMPORT_ORACLE), ids=lambda p: p.stem)
def test_library_does_not_import_oracle(path):
    names = _imported_modules(ast.parse(path.read_text()))
    assert not [name for name in names
                if "oracle" in name.lstrip(".").split(".")], path.name


@pytest.mark.parametrize(
    "path", _modules_except(MAY_ENUMERATE), ids=lambda p: p.stem)
def test_library_does_not_enumerate_path_collections(path):
    names = _imported_modules(ast.parse(path.read_text()))
    assert not [name for name in names
                if name.split(".")[-1] == "enumerate_path_collections"], path.name


def test_only_the_listed_functions_have_unbounded_caches():
    cached = {node.name
              for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.FunctionDef)
              and any(ast.unparse(d).endswith("lru_cache(maxsize=None)")
                      for d in node.decorator_list)}
    assert cached == UNBOUNDED_CACHES
