"""Tests of the package as a whole: its public names, its imports, and the README."""

import ast
import importlib
import inspect
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import onticbench
from onticbench import hilbert, independence, modelfile, numerics, ontology, scenarios, synthesis

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "onticbench").glob("*.py"))

# Names deleted from the public surface, each with the module that used to
# hold it: nothing but tests called them, or a builtin or another helper
# does the same job.
DELETED = [
    (numerics, "Rational"),
    (numerics, "qmax"),
    (numerics, "qmin"),
    (hilbert, "parse_state"),
    (hilbert, "format_state"),
    (hilbert, "tensor_product"),
    (scenarios, "build_lhv_restriction"),
    (scenarios, "coin_pair_space"),
    (scenarios, "support_union"),
    (scenarios, "pbr_born_pairing"),
    (scenarios, "toy_synthesis_spec"),
    (independence, "check_preparation_independence"),
    (independence, "single_factor_marginals"),
    (synthesis, "min_violation"),
    (modelfile, "dump_model"),
]


class TestPublicSurface:
    def test_all_has_no_duplicates(self):
        assert len(set(onticbench.__all__)) == len(onticbench.__all__)

    def test_every_exported_name_resolves(self):
        missing = [name for name in onticbench.__all__ if not hasattr(onticbench, name)]
        assert not missing

    @pytest.mark.parametrize("module, name", DELETED, ids=[n for _, n in DELETED])
    def test_deleted_name_is_gone(self, module, name):
        assert not hasattr(module, name)
        assert not hasattr(onticbench, name)
        assert name not in onticbench.__all__

    def test_deleted_members_are_gone(self):
        assert not hasattr(numerics.QSqrt2, "conjugate")
        assert not hasattr(hilbert.StateVector, "is_normalized")
        assert not hasattr(hilbert.MeasurementBasis, "outcome_count")
        assert not hasattr(ontology.OnticSpace, "project")
        assert "validate" not in inspect.signature(hilbert.MeasurementBasis).parameters
        assert "validate" not in inspect.signature(hilbert.StateVector).parameters
        assert "inaccessible" not in inspect.signature(independence.check_local_independence).parameters


def _imported_names(tree: ast.Module):
    """(bound name, line) for every import in the module, __future__ excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree: ast.Module):
    """Every name the module reads, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    parsed = ast.parse(sub.value, mode="eval")
                    used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_typing_import(path):
    # With ``from __future__ import annotations`` builtin generics, ``X | None``
    # and collections.abc spell every annotation; this also sees an import
    # inside a function, which the fresh-interpreter check below would miss.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [m for m in modules if m and m.partition(".")[0] == "typing"]


def _annotated_objects(module):
    """Every function, class, method and property getter the module defines."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield value
        elif inspect.isclass(value):
            yield value
            for member in vars(value).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_annotation_resolves(path):
    # The annotations are never evaluated at run time, so a misspelled
    # generic or a missing import would otherwise go unseen.
    objects = list(_annotated_objects(importlib.import_module(f"onticbench.{path.stem}")))
    assert objects
    for obj in objects:
        typing.get_type_hints(obj)


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL)
    assert block, "README's Library section has no python block"
    namespace = {}
    exec(compile(block.group(1), "README.md", "exec"), namespace)
    assert capsys.readouterr().out == "0 1/4 1/4 1/2\n"
    assert namespace["result"].feasible is False


def test_cli_import_loads_no_code_generation_machinery():
    """`import onticbench.cli` leaves dataclasses, inspect and typing unloaded.

    Each console command pays its imports in a fresh interpreter; dataclasses
    (which pulls in inspect, ast, dis and tokenize) and the methods it
    generates with exec cost about a third of that import, and typing
    (with contextlib) would serve annotations that never run.  ``-S`` keeps
    site packages from loading any of them first.
    """
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import onticbench.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src")],
        check=True, capture_output=True, text=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
