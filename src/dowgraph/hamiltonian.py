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
which reads letters only, so counting a word needs neither the graph layer
nor this module; :func:`count_hamiltonian_sets` is its one-graph case.

Enumeration is a depth-first search over the edges that joins paths as it
takes edges and refuses every loop and cycle, so it visits only the
Hamiltonian sets, in ascending fingerprint order.  It builds each set's
fingerprint as it goes and hands it, with the set's live paths, to a
visitor callback, so a consumer can write each set as it is reached and
hold no list.  The oracles both engines are tested against, the mask scan
over the Fibonacci-many masks of :func:`nonconsecutive_masks` and the
brute-force path search, live in :mod:`dowgraph.oracles` with the
fingerprint's validators; no command loads them.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

from .counting import count_words
from .errors import InputError, TooLargeError
from .graphs import AssemblyGraph, PolygonalPath

__all__ = [
    "ENUMERATE_LIMIT",
    "nonconsecutive_masks",
    "mask_to_bits",
    "count_hamiltonian_sets",
    "enumerate_hamiltonian_sets",
    "format_hamiltonian_set",
]

# keeps the enumeration's 2n - 1 nested calls well inside Python's recursion limit
ENUMERATE_LIMIT = 200


# only the oracles call it; it stays here, cache and all, because
# bench/spans.py wraps it here by name and clears its cache
@lru_cache(maxsize=32)
def nonconsecutive_masks(num_bits: int) -> tuple[int, ...]:
    """All masks on ``num_bits`` bits with no two adjacent ones, ascending.

    There are F_(num_bits + 2) of them: the masks on k bits are the masks on
    k-1 bits plus the masks on k-2 bits with bit k-1 set.
    """
    if num_bits < 0:
        raise InputError("num_bits must be non-negative")
    # the masks on -1 and on 0 bits
    older: list[int] = [0]
    newer: list[int] = [0]
    for k in range(1, num_bits + 1):
        top = 1 << (k - 1)
        older, newer = newer, newer + [top | x for x in older]
    return tuple(newer)


def mask_to_bits(mask: int, num_edges: int) -> str:
    """Render a mask as a 0/1 string, edge e_1 leftmost.

    >>> mask_to_bits(0b10010, 5)
    '01001'
    """
    if num_edges < 0:
        raise InputError("num_edges must be non-negative")
    # bin() of the low bits under a guard bit, reversed without '0b1'
    return bin(mask & ((1 << num_edges) - 1) | 1 << num_edges)[:2:-1]


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
    >>> from dowgraph.oracles import edge_mask
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


def format_hamiltonian_set(hamset: frozenset[PolygonalPath]) -> str:
    """Bracketed vertex runs, e.g. ``[1-2-3][4]``, in ``(vertices, edges)`` order."""
    paths = sorted(hamset, key=lambda p: (p.vertices, p.edges))
    return "".join("[" + "-".join(map(str, p.vertices)) + "]" for p in paths)
