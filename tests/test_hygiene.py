"""Source hygiene: every name a package module or test file imports is
used in it, every name a package module defines is used outside the
tests (the oracles excepted, which only tests read), no package module
but the acceptance criteria imports the oracles, every function the
benchmark's tracer wraps and every report field it reads exists, no
record on the import path is a dataclass but the two the benchmark
pins, the others being NamedTuples whose fields stay fixed, and git tracks no file that .gitignore excludes (generated files).

The name checks go by name only: a definition, a method above all, that
shares its name with a live one elsewhere escapes them, because every
reference to the live one counts for it too."""

import ast
import importlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import pytest

from fanokit.filtration import DInftyReport, compute_d_infty, ideal_power_filtration
from fanokit.model import catalog_model
from fanokit.stability import DingReport, ding_invariant, semistability_scan
from fanokit.subscheme import IdealSequenceOnXxA1, point_subscheme

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fanokit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted((ROOT / "tests").glob("*.py"))
SEARCHED = ("src", "tests", "perfbench", "benchmarks")
# the independent oracles exist for the tests to read
TEST_READ_MODULES = {"oracles.py"}
# entry points the tracer still lists although the package dropped them
STALE_ENTRY_POINTS = {"polytope.sliced_volume_function", "subscheme.is_integrally_closed",
                      "oracles.counting_profile", "exactlp.solve_lp",
                      "lattice.count_points_in_ideals", "lattice.filter_points_in_ideals",
                      "filtration.compute_weight_series", "stability.ding_weight_series",
                      "filtration.find_r1", "polytope.enumerate_basic_feasible"}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_flags_an_unused_import():
    source = "from math import gcd, lcm\nimport os\n\nx = gcd(2, 4)\n"
    assert unused_imports(source) == ["lcm (line 1)", "os (line 2)"]


def test_scan_sees_attribute_roots_and_annotations():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from typing import Sequence\n\n"
              "def f(v: Sequence) -> str:\n    return os.path.sep\n")
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", MODULES + TEST_FILES,
                         ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Dotted names a module imports, relative imports read as fanokit's;
    each name taken from a module is listed too, since it may be a
    submodule."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("fanokit" if node.level else "", node.module)))
            out.add(module)
            out.update(f"{module}.{alias.name}" for alias in node.names)
    return out


def test_import_scan_sees_every_form():
    for source in ("from .oracles import f\n", "from . import oracles\n",
                   "import fanokit.oracles\n", "from fanokit import oracles\n"):
        assert "fanokit.oracles" in imported_modules(source)
    assert "fanokit.oracles" not in imported_modules("from .filtration import oracles_x\n")


def test_only_acceptance_imports_the_oracles():
    """A value module that read the oracles would be checked against
    itself."""
    importers = [p.name for p in sorted(PACKAGE.glob("*.py"))
                 if "fanokit.oracles" in imported_modules(p.read_text())]
    assert importers == ["acceptance.py"]


def top_level_definitions(tree: ast.Module) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each module-level function, class
    and assigned constant, and of each method of a module-level class
    other than the double-underscore ones."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out.extend((name, node.lineno, node.end_lineno) for name in names)
        if isinstance(node, ast.ClassDef):
            out.extend((m.name, m.lineno, m.end_lineno) for m in node.body
                       if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not m.name.startswith("__"))
    return out


def name_references(tree: ast.Module) -> list[tuple[str, int]]:
    """(identifier, line) of every name, attribute, imported name, and word
    inside a string literal other than a docstring."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out.extend((alias.name, node.lineno) for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            out.extend((word, node.lineno)
                       for word in re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def unreferenced_names(searched: Sequence[str], modules: Sequence[Path]) -> list[str]:
    """module:name for each definition in modules that no file under the
    searched directories names outside the definition itself."""
    sites: dict[str, list[tuple[Path, int]]] = {}
    for top in searched:
        for path in (ROOT / top).rglob("*.py"):
            for name, line in name_references(ast.parse(path.read_text())):
                sites.setdefault(name, []).append((path, line))
    unreferenced = []
    for module in modules:
        for name, first, last in top_level_definitions(ast.parse(module.read_text())):
            if all(path == module and first <= line <= last
                   for path, line in sites.get(name, [])):
                unreferenced.append(f"{module.name}:{name}")
    return unreferenced


def test_no_unreferenced_names():
    assert unreferenced_names(SEARCHED, MODULES) == []


def test_no_name_only_tests_reference():
    """Library code that only tests reach is dead code with a test."""
    untested_tops = [top for top in SEARCHED if top != "tests"]
    modules = [m for m in MODULES if m.name not in TEST_READ_MODULES]
    assert unreferenced_names(untested_tops, modules) == []


def test_tracer_entry_points_resolve():
    """A deleted or renamed function would read as 0 calls in a trace."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.AnnAssign)
                 and node.target.id == "ENTRY_POINTS")
    unresolved = set()
    for entry in table.elts:
        module, attr = entry.elts[0].value, entry.elts[1].value
        try:
            found = hasattr(importlib.import_module(f"fanokit.{module}"), attr)
        except ModuleNotFoundError:
            found = False
        if not found:
            unresolved.add(f"{module}.{attr}")
    assert unresolved <= STALE_ENTRY_POINTS


def test_benchmark_fields_are_report_fields():
    """The benchmark holds each dinfty and ding pass to these report
    fields; a dropped one would fail every such operation there."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    summarize = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "summarize")
    table = next(node.value.value for node in ast.walk(summarize)
                 if isinstance(node, ast.Assign) and node.targets[0].id == "fields")
    reports = {"dinfty": DInftyReport, "ding": DingReport}
    read = {key.value: [name.value for name in value.elts]
            for key, value in zip(table.keys, table.values)}
    assert set(read) == set(reports)
    for workload, names in read.items():
        assert set(names) <= set(reports[workload]._fields), workload


# the records perfbench/test_perfbench.py rebuilds with dataclasses.replace
PINNED_DATACLASSES = ["fanokit.stability.BetaReport", "fanokit.stability.ScanEntry"]


def test_import_makes_only_the_pinned_dataclasses():
    """@dataclass compiles its generated methods from source on every
    import, which the benchmark's setup_s times, so the records that
    `import fanokit` loads are NamedTuples, but for the pinned two."""
    probe = ("import dataclasses, sys, fanokit\n"
             "for name, module in sorted(sys.modules.items()):\n"
             "    if name.startswith('fanokit'):\n"
             "        for value in vars(module).values():\n"
             "            if dataclasses.is_dataclass(value) and value.__module__ == name:\n"
             "                print(f'{name}.{value.__qualname__}')\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == PINNED_DATACLASSES


def _records() -> dict:
    """One record of each NamedTuple type on the import path, by name."""
    X = catalog_model("P1")
    Z = point_subscheme(X, 0)
    S = IdealSequenceOnXxA1(steps=(Z, Z))
    records = [X.charts[0], X, Z, S,
               compute_d_infty(ideal_power_filtration(X, Z), r_list=(1,)),
               ding_invariant(X, S, r=1), semistability_scan(X, [Z])]
    return {type(record).__name__: record for record in records}


@pytest.mark.parametrize("name", ["Chart", "ToricFanoModel", "MonomialSubscheme",
                                  "IdealSequenceOnXxA1", "DInftyReport", "DingReport",
                                  "ScanReport"])
def test_record_fields_cannot_be_reassigned(name):
    record = _records()[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    # equal by the fields, a rebuilt record included
    assert record == type(record)(**record._asdict())


def test_no_ignored_file_is_tracked():
    git = shutil.which("git")
    if git is None:
        pytest.skip("git is not installed")
    inside = subprocess.run([git, "rev-parse", "--show-toplevel"], cwd=ROOT,
                            capture_output=True, text=True)
    if inside.returncode != 0 or Path(inside.stdout.strip()) != ROOT:
        pytest.skip("not a git checkout")
    listed = subprocess.run([git, "ls-files", "-ci", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, text=True,
                            check=True)
    assert listed.stdout.split() == []
