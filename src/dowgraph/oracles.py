"""Test oracles: the independent checks that the engines are tested against.

No command loads this module and no engine module imports it.  The engines
are the counting programme of :mod:`dowgraph.counting`, the enumeration
search of :mod:`dowgraph.hamiltonian` and the parity verdict of
:mod:`dowgraph.maximality`; the oracles are slow, exhaustive and built
apart from them:

* the mask scan, which runs :func:`hamiltonian_set_from_mask`, the decoder
  of a single fingerprint, over the Fibonacci-many masks of
  :func:`~dowgraph.hamiltonian.nonconsecutive_masks`;
* the brute-force path search, :func:`brute_force_hamiltonian_sets`, which
  builds every polygonal path by extension and uses no fingerprint;
* the endpoint-pairing test, :func:`paired_endpoints_witness`, the paper's
  graph-side condition for reaching the bound and the twin of the parity
  verdict.

The validators they rest on live here too: :func:`are_neighbors` and
:func:`is_polygonal` for a given path, :func:`is_hamiltonian_set` and
:func:`edge_mask` for a given set, and :func:`alternating_mask`, the one
mask without adjacent ones that no Hamiltonian set has.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

from .errors import (
    ConsecutiveEdgesError,
    InputError,
    InvalidHamiltonianSetError,
    NotIncidentError,
    TooLargeError,
)
from .graphs import AssemblyGraph, PolygonalPath
from .hamiltonian import nonconsecutive_masks

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "are_neighbors",
    "is_polygonal",
    "is_hamiltonian_set",
    "edge_mask",
    "alternating_mask",
    "hamiltonian_set_from_mask",
    "paired_endpoints_witness",
    "brute_force_hamiltonian_sets",
]

BRUTE_FORCE_LIMIT = 8


def are_neighbors(graph: AssemblyGraph, v: int, a: int, b: int) -> bool:
    """Do edges a and b meet at a corner of vertex v?

    False exactly when {a, b} is one of the two straight-through pairs at v.
    Both edges must be incident to v; virtual indices 0 and 2n are legal
    arguments since they participate in straight-through pairs.
    """
    if v not in graph.straight_through:
        raise NotIncidentError(f"{v} is not a vertex of this graph")
    if a == b:
        raise InputError("edges must be distinct")
    p, q = graph.straight_through[v]
    here = p | q
    if a not in here:
        raise NotIncidentError(f"edge e_{a} is not incident to vertex {v}")
    if b not in here:
        raise NotIncidentError(f"edge e_{b} is not incident to vertex {v}")
    return frozenset((a, b)) not in graph.straight_through[v]


def is_polygonal(graph: AssemblyGraph, path: PolygonalPath) -> bool:
    """Check a path against the graph: distinct vertices, real incident
    edges, and a corner turn at every interior vertex.

    Singletons are polygonal.  Anything revisiting a vertex is not, which
    also rules out loops and closed walks.
    """
    vs, es = path.vertices, path.edges
    if any(v not in graph.straight_through for v in vs):
        return False
    if len(set(vs)) != len(vs):
        return False
    for t, e in enumerate(es):
        if not 1 <= e <= graph.num_real_edges:
            return False
        if set(graph.edge_ends(e)) != {vs[t], vs[t + 1]}:
            return False
    for t in range(len(es) - 1):
        if not are_neighbors(graph, vs[t + 1], es[t], es[t + 1]):
            return False
    return True


def is_hamiltonian_set(graph: AssemblyGraph, candidate: frozenset[PolygonalPath]) -> bool:
    """Polygonal paths, pairwise vertex-disjoint, covering every vertex."""
    seen: set[int] = set()
    for path in candidate:
        if not is_polygonal(graph, path):
            return False
        for v in path.vertices:
            if v in seen:
                return False
            seen.add(v)
    return seen == set(graph.vertices)


def edge_mask(graph: AssemblyGraph, hamset: frozenset[PolygonalPath]) -> int:
    """Fingerprint a Hamiltonian set as its used-edge bitmask."""
    if not is_hamiltonian_set(graph, hamset):
        raise InvalidHamiltonianSetError("not a Hamiltonian set of this graph")
    mask = 0
    for path in hamset:
        for e in path.edges:
            mask |= 1 << (e - 1)
    return mask


def alternating_mask(n: int) -> int:
    """The mask selecting e_1, e_3, ..., e_(2n-1); the one value the
    fingerprint map can never take, since those n edges chain every vertex
    into closed runs."""
    return sum(1 << k for k in range(0, 2 * n - 1, 2))


def _selected_edges(graph: AssemblyGraph, mask: int) -> Iterator[tuple[int, int, int]]:
    # each edge e_i = (u, v) that the mask selects, as (i, u, v), ascending
    while mask:
        low = mask & -mask
        mask ^= low
        i = low.bit_length()
        yield (i, *graph.edge_ends(i))


def hamiltonian_set_from_mask(graph: AssemblyGraph, mask: int) -> frozenset[PolygonalPath] | None:
    """Decode a mask back into its Hamiltonian set, or None.

    None means the selected edges do not induce vertex-disjoint paths.  A
    mask with two adjacent bits is rejected outright because two consecutive
    edges can only continue straight through their shared vertex.  Without
    them no vertex has degree three, so the edges form paths and cycles
    only: a loop is refused as it is read, the paths are walked from their
    ends in vertex order, a singleton being a walk with no edge, and a
    vertex that no walk reached lies on a cycle.
    """
    if mask & (mask << 1):
        raise ConsecutiveEdgesError("mask selects two consecutively indexed edges")
    if mask >> graph.num_real_edges:
        raise ConsecutiveEdgesError(
            f"mask has bits beyond edge e_{graph.num_real_edges}"
        )

    adjacency: dict[int, list[tuple[int, int]]] = {v: [] for v in graph.vertices}
    for e, u, v in _selected_edges(graph, mask):
        if u == v:
            return None
        adjacency[u].append((e, v))
        adjacency[v].append((e, u))

    paths: list[PolygonalPath] = []
    visited: set[int] = set()
    for start in graph.vertices:
        if start in visited or len(adjacency[start]) > 1:
            continue
        vs = [start]
        es: list[int] = []
        visited.add(start)
        while True:
            nxt = [(e, o) for e, o in adjacency[vs[-1]] if not es or e != es[-1]]
            if not nxt:
                break
            e, other = nxt[0]
            es.append(e)
            vs.append(other)
            visited.add(other)
        paths.append(PolygonalPath(vs, es))
    if len(visited) != len(graph.vertices):
        return None
    return frozenset(paths)


def paired_endpoints_witness(graph: AssemblyGraph) -> int | None:
    """Graph-side twin of :func:`~dowgraph.maximality.even_split_witness`.

    Looks for up to n-1 pairwise non-consecutive transversal edges whose
    endpoint list mentions no vertex exactly once; such a selection can
    never be a union of vertex-disjoint polygonal paths.  Returns the first
    witness in ascending mask order, or None.  It scans all F(2n+1) masks
    without adjacent ones, so it serves only to cross-check the parity
    verdict on small words.
    """
    for mask in nonconsecutive_masks(graph.num_real_edges):
        if 1 <= mask.bit_count() < graph.n:
            ends = Counter(x for _, u, v in _selected_edges(graph, mask) for x in (u, v))
            if 1 not in ends.values():
                return mask
    return None


def _all_polygonal_paths(graph: AssemblyGraph) -> list[PolygonalPath]:
    """Every polygonal path with at least one edge, by exhaustive extension."""
    found: set[PolygonalPath] = set()

    def extend(vs: list[int], es: list[int]) -> None:
        u = vs[-1]
        for e in graph.real_edges_at(u):
            x, y = graph.edge_ends(e)
            other = y if x == u else x
            if other in vs:
                continue
            if es and not are_neighbors(graph, u, es[-1], e):
                continue
            vs.append(other)
            es.append(e)
            candidate = PolygonalPath(vs, es)
            if is_polygonal(graph, candidate):
                found.add(candidate)
            extend(vs, es)
            vs.pop()
            es.pop()

    for v in graph.vertices:
        extend([v], [])
    return sorted(found, key=lambda p: (p.vertices, p.edges))


def brute_force_hamiltonian_sets(graph: AssemblyGraph) -> list[frozenset[PolygonalPath]]:
    """Independent reference enumeration, no fingerprints involved.

    Builds every polygonal path by vertex-by-vertex extension, then covers
    the vertex set exactly.  Exponential and proud of it; refuses graphs
    beyond n = 8 so nobody leans on it by accident.
    """
    if graph.n > BRUTE_FORCE_LIMIT:
        raise TooLargeError(
            f"brute force reference enumeration is capped at n = {BRUTE_FORCE_LIMIT}"
        )
    paths = _all_polygonal_paths(graph)
    by_vertex: dict[int, list[PolygonalPath]] = {v: [] for v in graph.vertices}
    for p in paths:
        for v in p.vertices:
            by_vertex[v].append(p)

    out: list[frozenset[PolygonalPath]] = []
    chosen: list[PolygonalPath] = []

    def cover(uncovered: frozenset[int]) -> None:
        if not uncovered:
            out.append(frozenset(chosen))
            return
        v = min(uncovered)
        chosen.append(PolygonalPath((v,), ()))
        cover(uncovered - {v})
        chosen.pop()
        for p in by_vertex[v]:
            pv = frozenset(p.vertices)
            if pv <= uncovered:
                chosen.append(p)
                cover(uncovered - pv)
                chosen.pop()

    cover(frozenset(graph.vertices))
    return out
