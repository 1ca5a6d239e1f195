"""Library code never imports from the oracle: only ``oracle`` itself and
the ``cli`` (whose ``verify`` imports it when it runs) may. Listing every
path collection is reference code in the same way: only ``oracle``, which
defines it and runs ``verify``'s checks, may use
``enumerate_path_collections``, and only ``oracle`` has the generators
(``generators``, ``Generator``) built from that list. No module of the
package imports one of the tests' modules, such as their references.
The library is what the deciders and the commands run: each name a
library module exports is used by another library module or by ``cli``,
or is public API. The oracle is what ``verify`` runs: each name it
exports is reached from ``verify``'s per-cell checks or its sample of
cells, and references that only the tests read live under ``tests/``.
README's API list names exactly the exports, module by module.
Memory stays bounded: no function sits in an unbounded ``lru_cache``
(``UNBOUNDED_CACHES`` names none; the per-n tables keep their latest n),
and the per-cell caches hold at most a fixed number of cells, enough for
every cell of S3-S5.
The compiled sweep is ``wiring``'s own: no other module reads a
diagram's ``sweep`` or a ``SweepProgram``'s fields, so the program's
layout can change inside ``wiring`` alone.
Start-up stays cheap: no module uses ``dataclasses``, and importing the
CLI loads neither the oracle nor the introspection modules that
``dataclasses`` pulls in."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import tnnflag

PACKAGE = pathlib.Path(tnnflag.__file__).parent
TEST_MODULES = {p.stem for p in pathlib.Path(__file__).parent.glob("*.py")}
MAY_IMPORT_ORACLE = {"oracle", "cli"}
MAY_ENUMERATE = {"oracle"}
LIBRARY = ("perms", "algebra", "wiring", "plucker", "extremal", "membership")
# exported for callers, though no other library module and no command uses it
PUBLIC_API = {
    "Subexpression", "inverse", "left_mult_s", "right_mult_s", "all_perms",
    "bruhat_above",
    "VerticalEdge", "NegativeSegment", "WiringDiagram",
    "IncidenceRelation", "index_from_str", "all_proper_indices",
    "SupportVector", "ExtremalChain", "is_supported", "xi",
    "CellCertificate", "identify_cell", "psi", "trop_psi",
    "propagate_three_term", "trop_propagate_three_term",
}
README = PACKAGE.parent.parent / "README.md"
UNBOUNDED_CACHES: set[str] = set()
S3_TO_S5_CELLS = 4013
NOT_LOADED_BY_CLI = ("dataclasses", "inspect", "ast", "dis", "tokenize",
                     "tnnflag.oracle")


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


@pytest.mark.parametrize(
    "path", _modules_except({"oracle"}), ids=lambda p: p.stem)
def test_only_the_oracle_has_the_generators(path):
    """The library's one product of the greedy walk is the compiled walk
    (``extremal._walk_program``); the generator records, built from the
    listed path collections, are the oracle's reference for it. No other
    module defines, assigns or imports ``generators`` or ``Generator``."""
    tree = ast.parse(path.read_text())
    named = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    named |= {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    named |= {name.split(".")[-1] for name in _imported_modules(tree)}
    assert not named & {"generators", "Generator"}, path.name


def test_package_does_not_import_test_modules():
    assert not [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
                for name in _imported_modules(ast.parse(path.read_text()))
                if name.lstrip(".").split(".")[0] in TEST_MODULES]


@pytest.mark.parametrize(
    "path", _modules_except({"wiring"}), ids=lambda p: p.stem)
def test_only_wiring_reads_the_compiled_sweep(path):
    """Neither the attributes ``sweep`` and the program's fields, nor the
    name ``SweepProgram``, bare, as an attribute or imported."""
    from tnnflag.wiring import SweepProgram
    tree = ast.parse(path.read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    named = {*_referenced_names(path), *_imported_modules(tree)}
    assert sorted({"sweep", *SweepProgram._fields} & read) == [], path.name
    assert not [name for name in named
                if name.split(".")[-1] == "SweepProgram"], path.name


def _referenced_names(path) -> set[str]:
    """Every name that ``path`` reads as a bare name or an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))}


def _exports(module: str) -> list[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["__all__"])


def _readme_api_lists() -> dict[str, list[str]]:
    """Per module, the names in backticks after the colon of its item in
    README's API list (``- `tnnflag.<module>` ...: `name`, ...``)."""
    text = README.read_text()
    start = text.index("\n## API\n")
    end = text.find("\n## ", start + 1)
    out = {}
    for item in text[start:end if end > 0 else None].split("\n- ")[1:]:
        head, _, names = item.partition(":")
        module = re.fullmatch(r"`tnnflag\.(\w+)`.*", head, re.S).group(1)
        out[module] = re.findall(r"`(\w+)`", names)
    return out


@pytest.mark.parametrize("module", LIBRARY)
def test_library_exports_are_used_or_public_api(module):
    """A check-only name belongs in the oracle, not in the library."""
    used = set().union(*(_referenced_names(PACKAGE / f"{other}.py")
                         for other in (*LIBRARY, "cli") if other != module))
    assert [name for name in _exports(module)
            if name not in used and name not in PUBLIC_API] == []


def test_public_api_is_exported_and_listed_in_the_readme():
    """README's API list names, under each library module and the oracle,
    exactly what that module exports, so the public API too, and no name
    that has moved away."""
    exported = set().union(*map(_exports, LIBRARY))
    assert PUBLIC_API <= exported
    listed = _readme_api_lists()
    assert sorted(listed) == sorted((*LIBRARY, "oracle"))
    for module, names in listed.items():
        assert sorted(names) == sorted(_exports(module)), module


def _reached_in_oracle(roots) -> set[str]:
    """The names that the oracle's top-level definitions ``roots`` read in
    their bodies, directly or through the oracle's other top-level
    definitions that they read: its own call graph."""
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    bodies = {node.name: node.body for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [node.id for stmt in bodies.get(name, ())
                     for node in ast.walk(stmt) if isinstance(node, ast.Name)]
    return reached


def test_oracle_exports_only_what_verify_runs():
    """``verify`` runs ``_verify_cell`` on the cells of ``_sample_pairs``;
    a reference that only the tests read belongs in ``tests/``."""
    reached = _reached_in_oracle({"_verify_cell", "_sample_pairs"})
    assert [name for name in _exports("oracle") if name not in reached] == []


def test_only_the_listed_functions_have_unbounded_caches():
    cached = {node.name
              for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.FunctionDef)
              and any(ast.unparse(d).endswith("lru_cache(maxsize=None)")
                      for d in node.decorator_list)}
    assert cached == UNBOUNDED_CACHES


def test_per_cell_caches_are_bounded():
    """The caches per cell (the diagram and the compiled walk), the one
    per w (``wiring._w_word``), which ``build_diagram`` reads for every
    cell of that w, and the one per flag (``extremal._flag_perm``), the
    deciders' cell read's one cache, which it looks up for each of a
    cell's two flags."""
    from tnnflag.extremal import _flag_perm, _walk_program
    from tnnflag.perms import all_perms, bruhat_pairs
    from tnnflag.wiring import _w_word, build_diagram
    assert sum(len(bruhat_pairs(n)) for n in (3, 4, 5)) == S3_TO_S5_CELLS
    for cache in (build_diagram, _walk_program, _w_word):
        maxsize = cache.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize >= S3_TO_S5_CELLS
    # the cell read's cache of flags holds every flag of S3-S5, and more
    maxsize = _flag_perm.cache_parameters()["maxsize"]
    assert maxsize is not None \
        and maxsize >= sum(len(list(all_perms(n))) for n in (3, 4, 5))


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_library_does_not_import_dataclasses(path):
    names = _imported_modules(ast.parse(path.read_text()))
    assert not [name for name in names
                if name.lstrip(".").split(".")[0] == "dataclasses"], path.name


def _modules_loaded_by(code: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_cli_import_loads_no_introspection_modules():
    """Compared with a bare interpreter, whose ``site`` may preload some
    modules already."""
    added = (_modules_loaded_by("import tnnflag.cli")
             - _modules_loaded_by("pass"))
    assert "tnnflag.cli" in added
    assert not [name for name in NOT_LOADED_BY_CLI if name in added]
