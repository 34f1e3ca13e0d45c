"""The package namespace re-exports each module's public names, once each."""

from __future__ import annotations

import pytest

import dowgraph as dg

MODULES = (dg.census, dg.errors, dg.graphs, dg.hamiltonian, dg.maximality, dg.words)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_names_are_package_names(module):
    for name in module.__all__:
        assert name in dg.__all__, name
        assert getattr(dg, name) is getattr(module, name), name


def test_package_names_are_the_union_of_the_module_lists():
    assert len(dg.__all__) == len(set(dg.__all__))
    assert set(dg.__all__) == {name for module in MODULES for name in module.__all__}
