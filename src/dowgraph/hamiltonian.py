"""Exact counting and enumeration of Hamiltonian sets of polygonal paths.

A Hamiltonian set of a graph is a collection of vertex-disjoint polygonal
paths, singletons allowed, that together visit every vertex; here it is a
``frozenset`` of :class:`~dowgraph.graphs.PolygonalPath` objects.  Each set
is fingerprinted by the bitmask of transversal edges it uses: bit i-1 of the
mask stands for edge e_i, so masks range over 2n-1 bits.

Three facts drive the algorithms here.  The fingerprint map is injective, no
fingerprint contains two adjacent ones (consecutive edges meet straight
through, never at a corner), and the all-alternating mask 1010...1 is never
hit.  A mask without adjacent ones takes at most one edge of each
straight-through pair, so no vertex gets degree three; such a mask is a
fingerprint exactly when its edges contain no loop and no cycle.

Counting runs the frontier dynamic programme of :mod:`dowgraph.counting`,
whose names this module re-exports; that module reads letters only, so
counting a word needs neither the graph layer nor this module.

Enumeration is a depth-first search over the edges that joins paths as it
takes edges and refuses every loop and cycle, so it visits only the
Hamiltonian sets, in ascending fingerprint order.  It builds each set's
fingerprint as it goes and hands it, with the set's live paths, to a
visitor callback, so a consumer can write each set as it is reached and
hold no list.  The mask scan, which runs :func:`hamiltonian_set_from_mask`
over the Fibonacci-many masks of :func:`nonconsecutive_masks`, is the
decoder of a single fingerprint and, with the brute-force path search, the
oracle both engines are tested against.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

from .counting import count_words, fibonacci
from .errors import (
    ConsecutiveEdgesError,
    InputError,
    InvalidHamiltonianSetError,
    TooLargeError,
)
from .graphs import AssemblyGraph, PolygonalPath, are_neighbors, is_polygonal

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "ENUMERATE_LIMIT",
    "fibonacci",
    "nonconsecutive_masks",
    "alternating_mask",
    "mask_to_bits",
    "edge_mask",
    "hamiltonian_set_from_mask",
    "is_hamiltonian_set",
    "count_hamiltonian_sets",
    "count_words",
    "enumerate_hamiltonian_sets",
    "brute_force_hamiltonian_sets",
    "format_hamiltonian_set",
]

BRUTE_FORCE_LIMIT = 8
# keeps the enumeration's 2n - 1 nested calls well inside Python's recursion limit
ENUMERATE_LIMIT = 200


@lru_cache(maxsize=32)
def nonconsecutive_masks(num_bits: int) -> tuple[int, ...]:
    """All masks on ``num_bits`` bits with no two adjacent ones, ascending.

    There are F_(num_bits + 2) of them: the masks on k bits are the masks on
    k-1 bits plus the masks on k-2 bits with bit k-1 set.
    """
    if num_bits < 0:
        raise InputError("num_bits must be non-negative")
    older: list[int] = [0]
    newer: list[int] = [0, 1]
    if num_bits == 0:
        return (0,)
    for k in range(2, num_bits + 1):
        top = 1 << (k - 1)
        older, newer = newer, newer + [top | x for x in older]
    return tuple(newer)


def alternating_mask(n: int) -> int:
    """The mask selecting e_1, e_3, ..., e_(2n-1); the one value the
    fingerprint map can never take, since those n edges chain every vertex
    into closed runs."""
    return sum(1 << k for k in range(0, 2 * n - 1, 2))


def mask_to_bits(mask: int, num_edges: int) -> str:
    """Render a mask as a 0/1 string, edge e_1 leftmost.

    >>> mask_to_bits(0b10010, 5)
    '01001'
    """
    if num_edges < 0:
        raise InputError("num_edges must be non-negative")
    # bin() of the low bits under a guard bit, reversed without '0b1'
    return bin(mask & ((1 << num_edges) - 1) | 1 << num_edges)[:2:-1]


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


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _selects_disjoint_paths(graph: AssemblyGraph, mask: int) -> bool:
    """Does the mask's edge set induce vertex-disjoint simple paths?

    Rejects loops and cycles, the parallel two-edge kind included.  Assumes
    the mask has no two adjacent bits, which already guarantees corner turns
    at shared vertices and induced degree at most two.
    """
    parent = list(range(graph.n))
    slots = graph.edge_slots
    while mask:
        low = mask & -mask
        mask ^= low
        u, v = slots[low.bit_length() - 1]
        if u == v:
            return False
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def hamiltonian_set_from_mask(graph: AssemblyGraph, mask: int) -> frozenset[PolygonalPath] | None:
    """Decode a mask back into its Hamiltonian set, or None.

    None means the selected edges do not induce vertex-disjoint paths.  A
    mask with two adjacent bits is rejected outright because two consecutive
    edges can only continue straight through their shared vertex.
    """
    if mask & (mask << 1):
        raise ConsecutiveEdgesError("mask selects two consecutively indexed edges")
    if mask >> graph.num_real_edges:
        raise ConsecutiveEdgesError(
            f"mask has bits beyond edge e_{graph.num_real_edges}"
        )
    if not _selects_disjoint_paths(graph, mask):
        return None

    adjacency: dict[int, list[tuple[int, int]]] = {}
    m = mask
    while m:
        low = m & -m
        m ^= low
        e = low.bit_length()
        u, v = graph.edge_ends(e)
        adjacency.setdefault(u, []).append((e, v))
        adjacency.setdefault(v, []).append((e, u))

    paths: list[PolygonalPath] = []
    visited: set[int] = set()
    for start in sorted(adjacency):
        if start in visited or len(adjacency[start]) != 1:
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
        paths.append(PolygonalPath(tuple(vs), tuple(es)))
    for v in graph.vertices:
        if v not in adjacency:
            paths.append(PolygonalPath((v,), ()))
    return frozenset(paths)


def count_hamiltonian_sets(graph: AssemblyGraph) -> int:
    """How many Hamiltonian sets the graph has.

    The one-word case of :func:`count_words`, the counting programme.

    >>> from dowgraph import build_graph, tangled_cord
    >>> count_hamiltonian_sets(build_graph(tangled_cord(5)))
    88
    """
    return count_words([graph.word])[0]


def enumerate_hamiltonian_sets(graph: AssemblyGraph) -> list[frozenset[PolygonalPath]]:
    """All Hamiltonian sets, in ascending fingerprint order: the sets the
    search of :func:`_search` visits, collected by a visitor.  Words with
    more than :data:`ENUMERATE_LIMIT` letters raise :class:`TooLargeError`.

    >>> from dowgraph import build_graph, parse
    >>> g = build_graph(parse("1212"))
    >>> [mask_to_bits(edge_mask(g, hs), 3) for hs in enumerate_hamiltonian_sets(g)]
    ['000', '100', '010', '001']
    """
    out: list[frozenset[PolygonalPath]] = []
    _search(graph, lambda mask, live: out.append(frozenset(filter(None, live))), lambda path: path)
    return out


def _check_search_depth(graph: AssemblyGraph) -> None:
    if graph.n > ENUMERATE_LIMIT:
        raise TooLargeError(
            f"enumeration is capped at n = {ENUMERATE_LIMIT} letters; this word has n = {graph.n}"
        )


def _search(
    graph: AssemblyGraph,
    visit: Callable[[int, list], object],
    label: Callable[[PolygonalPath], object],
) -> None:
    """Call ``visit(mask, live)`` at each Hamiltonian set, in ascending
    fingerprint order.

    A depth-first search decides the edges from e_(2n-1) down to e_1,
    leaving each edge out before taking it, and sets bit i-1 of ``mask``
    when it takes e_i.  An edge is taken when the edge above it was not, it
    is no loop, and its ends lie on different paths, so the leaves are
    exactly the Hamiltonian sets.  A take joins two paths into a new
    PolygonalPath and calls ``label`` on it once.  Slots follow vertex
    order, and ``live[s]`` holds the (truthy) label of the path whose first
    vertex has slot ``s``, else None, so ``filter(None, live)`` yields a
    set's paths ordered by first vertex; the list is reused, so read it
    before the visit returns.  ``end[s]`` is the other end of the path that
    ends at slot ``s``.  The recursion is 2n - 1 calls deep, so words with
    more than :data:`ENUMERATE_LIMIT` letters are refused.
    """
    _check_search_depth(graph)
    slots = graph.edge_slots
    letters = graph.vertices
    end = list(range(graph.n))
    paths = [PolygonalPath((v,), ()) for v in letters]
    live = [label(p) for p in paths]

    def decide(i: int, above_taken: bool, mask: int) -> None:
        # edges e_(i+1)..e_(2n-1) are decided; decide e_i
        if i == 0:
            visit(mask, live)
            return
        decide(i - 1, False, mask)
        if above_taken:
            return
        u, v = slots[i - 1]
        a, b = end[u], end[v]
        if u == v or a == v:
            return
        # degree <= 2 keeps u and v path ends: join a..u with v..b
        ka, kb, key = min(a, u), min(b, v), min(a, b)
        pa, pb, la, lb = paths[ka], paths[kb], live[ka], live[kb]
        va, ea = pa.vertices, pa.edges
        if va[-1] != letters[u]:
            va, ea = va[::-1], ea[::-1]
        vb, eb = pb.vertices, pb.edges
        if vb[0] != letters[v]:
            vb, eb = vb[::-1], eb[::-1]
        live[ka] = live[kb] = None
        path = paths[key] = PolygonalPath(va + vb, ea + (i,) + eb)
        live[key] = label(path)
        end[a], end[b] = b, a
        decide(i - 1, True, mask | 1 << (i - 1))
        end[a], end[b] = u, v
        live[key] = None
        paths[ka], paths[kb], live[ka], live[kb] = pa, pb, la, lb

    decide(graph.num_real_edges, False, 0)


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
            candidate = PolygonalPath(tuple(vs), tuple(es))
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


def format_hamiltonian_set(hamset: frozenset[PolygonalPath]) -> str:
    """Bracketed vertex runs, e.g. ``[1-2-3][4]``, in ``(vertices, edges)`` order."""
    paths = sorted(hamset, key=lambda p: (p.vertices, p.edges))
    return "".join("[" + "-".join(map(str, p.vertices)) + "]" for p in paths)
