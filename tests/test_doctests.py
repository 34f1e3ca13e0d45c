"""The docstring examples of every module run as tests."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import dowgraph


def test_docstring_examples_pass():
    attempted = 0
    for info in pkgutil.iter_modules(dowgraph.__path__, prefix="dowgraph."):
        module = importlib.import_module(info.name)
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted >= 19
