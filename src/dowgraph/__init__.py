"""Double occurrence words, their assembly graphs, and exact enumeration of
Hamiltonian sets of polygonal paths, with an exhaustive small-n census.

Each module's ``__all__`` is the one list of its public names, and the
package re-exports them all, each from the module that defines it.  The
modules and their names resolve on first access: ``import dowgraph`` loads
no module, ``dowgraph.count_words`` loads the modules up to the counting
programme's, and ``dowgraph.__all__`` or ``from dowgraph import *`` loads
them all.  ``dowgraph.cli`` resolves on first access too, but re-exports
nothing.
"""

import importlib

__version__ = "0.1.0"

# in dependency order, so that a name is found before any module past its own loads
_MODULES = ("errors", "words", "counting", "graphs", "hamiltonian", "oracles", "maximality",
            "census")


def __getattr__(name: str):
    if name == "__all__":
        value = [n for module in _MODULES for n in __getattr__(module).__all__]
    elif name in _MODULES or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    else:
        for module in map(__getattr__, _MODULES):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
