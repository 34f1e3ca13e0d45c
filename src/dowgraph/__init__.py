"""Double occurrence words, their assembly graphs, and exact enumeration of
Hamiltonian sets of polygonal paths, with an exhaustive small-n census.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all.
"""

from . import census, errors, graphs, hamiltonian, maximality, words
from .census import *  # noqa: F403
from .errors import *  # noqa: F403
from .graphs import *  # noqa: F403
from .hamiltonian import *  # noqa: F403
from .maximality import *  # noqa: F403
from .words import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (census, errors, graphs, hamiltonian, maximality, words)
    for name in module.__all__
]
