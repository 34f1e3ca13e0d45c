"""The package namespace re-exports each module's public names, once each,
resolving each on first access."""

from __future__ import annotations

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import dowgraph as dg

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

MODULES = (dg.census, dg.counting, dg.errors, dg.graphs, dg.hamiltonian, dg.maximality,
           dg.words)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_names_are_package_names(module):
    for name in module.__all__:
        assert name in dg.__all__, name
        assert getattr(dg, name) is getattr(module, name), name


def test_package_names_are_the_union_of_the_module_lists():
    assert len(dg.__all__) == len(set(dg.__all__))
    assert set(dg.__all__) == {name for module in MODULES for name in module.__all__}


def test_importing_the_package_loads_no_module():
    code = "import sys, dowgraph; print(*sorted(m for m in sys.modules if m.startswith('dowgraph')))"
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.split() == ["dowgraph"]


@pytest.mark.parametrize("name", [m.__name__.split(".")[1] for m in MODULES])
def test_module_names_are_the_submodules(name):
    assert getattr(dg, name) is importlib.import_module(f"dowgraph.{name}")


@pytest.mark.parametrize("name", [m.__name__.split(".")[1] for m in MODULES])
def test_a_module_name_resolves_on_first_access(name):
    code = f"import dowgraph; print(dowgraph.{name}.__name__)"
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout.split()) == (0, [f"dowgraph.{name}"]), run.stderr


def test_the_cli_module_resolves_on_first_access():
    # it is no package name: it has no __all__ and adds none to the union
    code = "import dowgraph; print(dowgraph.cli.__name__, 'cli' in dowgraph.__all__)"
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout.split()) == (0, ["dowgraph.cli", "False"]), run.stderr


def test_star_import_binds_every_package_name():
    namespace: dict = {}
    exec("from dowgraph import *", namespace)
    for name in dg.__all__:
        assert namespace[name] is getattr(dg, name), name


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        dg.no_such_name  # noqa: B018
