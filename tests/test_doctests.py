"""The docstring examples of every module, and the README's, run as tests."""

from __future__ import annotations

import doctest
import importlib
import pkgutil
from pathlib import Path

import dowgraph


def test_docstring_examples_pass():
    attempted = 0
    for info in pkgutil.iter_modules(dowgraph.__path__, prefix="dowgraph."):
        module = importlib.import_module(info.name)
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted >= 19


def test_readme_examples_pass():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0
    assert result.attempted >= 15
