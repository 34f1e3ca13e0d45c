"""Assembly graphs induced by double occurrence words, and polygonal paths.

A word w of length 2n induces a graph whose vertices are the letters of w
and whose transversal edges are e_i = (w[i], w[i+1]) for i = 1..2n-1.  Two
virtual edges e_0 and e_2n hang off w[1] and w[2n]; they complete the
incidence picture (every vertex sees exactly four edge ends) but can never
be selected by any enumeration.

Each vertex is rigid: the transversal passes straight through it twice, once
per visit.  At a vertex whose occurrences sit at positions i < j the two
straight-through pairs are {e_(i-1), e_i} and {e_(j-1), e_j}; every other
pair of incident edges meets at a corner and is called a neighbor pair.
Polygonal paths are the simple paths that turn a corner at every interior
vertex, i.e. consecutive edges are always neighbors.

This module builds the graph and renders it.  Checking a given path
against it is left to the test oracles
:func:`~dowgraph.oracles.are_neighbors` and
:func:`~dowgraph.oracles.is_polygonal`, which no command loads.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import InputError
from .words import Dow, _Frozen, occurrences, render

__all__ = [
    "AssemblyGraph",
    "PolygonalPath",
    "build_graph",
    "to_dot",
]


class AssemblyGraph(_Frozen):
    """Incidence data derived from a word; build with :func:`build_graph`.

    A graph is equal only to itself, and hashes by identity: it holds a
    dict, so its field tuple has no hash.
    """

    __slots__ = ("word", "straight_through", "edge_slots", "vertices")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    word: Dow
    # vertex -> its two straight-through pairs, each a frozenset of edge
    # indices; together they hold every edge at the vertex, virtual ones too
    straight_through: dict[int, tuple[frozenset[int], frozenset[int]]]
    # per real edge e_i (slot i-1): endpoints as 0-based vertex slots, for
    # tight loops that should not hash letters
    edge_slots: tuple[tuple[int, int], ...]
    # sorted vertex letters; the slot of a letter is its index here
    vertices: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.word.n

    @property
    def num_real_edges(self) -> int:
        return 2 * self.word.n - 1

    def edge_ends(self, i: int) -> tuple[int, int]:
        """Endpoints of real edge e_i, 1 <= i <= 2n-1, in word order."""
        if not 1 <= i <= self.num_real_edges:
            raise InputError(f"edge index {i} outside 1..{self.num_real_edges}")
        return self.word.letters[i - 1], self.word.letters[i]

    def real_edges_at(self, v: int) -> tuple[int, ...]:
        """Incident real edge indices at v, ascending; a loop appears once."""
        p, q = self.straight_through[v]
        return tuple(sorted(i for i in p | q if 1 <= i <= self.num_real_edges))


def build_graph(word: Dow) -> AssemblyGraph:
    """Assemble the incidence structures for ``word``."""
    occ = occurrences(word)
    two_n = len(word.letters)
    straight = {
        v: (frozenset((i - 1, i)), frozenset((j - 1, j))) for v, (i, j) in occ.items()
    }
    verts = tuple(sorted(word.alphabet))
    slot = {v: k for k, v in enumerate(verts)}
    edge_slots = tuple(
        (slot[word.letters[i - 1]], slot[word.letters[i]]) for i in range(1, two_n)
    )
    return AssemblyGraph(word, straight, edge_slots, verts)


class PolygonalPath(_Frozen):
    """A candidate path: vertices v_0..v_k and the edge chosen at each step.

    Stored direction-normalized so that a path and its reversal compare and
    hash equal.  Shape constraints (edge count, non-emptiness) are enforced
    here; graph-relative validity is the job of
    :func:`~dowgraph.oracles.is_polygonal`.
    """

    __slots__ = ("vertices", "edges")
    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def __init__(self, vertices: Iterable[int], edges: Iterable[int]) -> None:
        vertices, edges = tuple(vertices), tuple(edges)
        if not vertices:
            raise InputError("a path needs at least one vertex")
        if len(edges) != len(vertices) - 1:
            raise InputError("a path on k+1 vertices needs exactly k edges")
        self.__setstate__(min((vertices, edges), (vertices[::-1], edges[::-1])))


def to_dot(graph: AssemblyGraph) -> str:
    """Render the graph, virtual edges included, as deterministic DOT text.

    Vertices become nodes v<letter> in ascending letter order, the two
    transversal endpoints become point-shaped nodes, and every edge carries
    its index as a label.  Each vertex node also records its two
    straight-through pairs, so the rigid structure survives the export.
    """
    w = graph.word.letters
    two_n = len(w)
    lines = ["graph assembly {", f'  label="{render(graph.word)}";']
    lines.append("  start [shape=point];")
    lines.append("  end [shape=point];")
    def fmt(pair: frozenset[int]) -> str:
        return "(" + ",".join(f"e{i}" for i in sorted(pair)) + ")"

    for v in graph.vertices:
        p, q = graph.straight_through[v]
        lines.append(f'  v{v} [label="{v}", straight_through="{fmt(p)},{fmt(q)}"];')
    lines.append(f'  start -- v{w[0]} [label="e0"];')
    for i in range(1, two_n):
        lines.append(f'  v{w[i - 1]} -- v{w[i]} [label="e{i}"];')
    lines.append(f'  v{w[-1]} -- end [label="e{two_n}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
