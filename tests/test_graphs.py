"""Graph construction, the neighbor relation, polygonal paths, DOT export."""

from __future__ import annotations

import re
from itertools import combinations

import pytest
from hypothesis import given

import dowgraph as dg

from conftest import dows


# -------------------------------------------------------------- building

def test_edges_follow_the_word():
    g = dg.build_graph(dg.parse("112323"))
    assert g.num_real_edges == 5
    assert [g.edge_ends(i) for i in range(1, 6)] == [
        (1, 1), (1, 2), (2, 3), (3, 2), (2, 3),
    ]
    assert g.vertices == (1, 2, 3)


def test_edge_index_bounds():
    g = dg.build_graph(dg.parse("1212"))
    with pytest.raises(dg.InputError):
        g.edge_ends(0)
    with pytest.raises(dg.InputError):
        g.edge_ends(4)


def test_virtual_edges_in_incidence():
    g = dg.build_graph(dg.parse("1212"))
    # the two straight-through pairs at a vertex hold every edge there
    assert frozenset.union(*g.straight_through[1]) == frozenset({0, 1, 2, 3})
    assert frozenset.union(*g.straight_through[2]) == frozenset({1, 2, 3, 4})
    assert g.real_edges_at(1) == (1, 2, 3)


def test_straight_through_pairs_from_occurrences():
    g = dg.build_graph(dg.parse("112323"))
    # letter 3 sits at positions 4 and 6
    assert g.straight_through[3] == (frozenset({3, 4}), frozenset({5, 6}))
    # the loop letter 1 sits at positions 1 and 2
    assert g.straight_through[1] == (frozenset({0, 1}), frozenset({1, 2}))


@given(dows())
def test_half_edge_accounting(word):
    g = dg.build_graph(word)
    total = 0
    for v in g.vertices:
        virtual = int(v == word.letters[0]) + int(v == word.letters[-1])
        total += 4 - virtual
    assert total == 2 * (2 * word.n - 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_tangled_cords_have_no_loops(n):
    g = dg.build_graph(dg.tangled_cord(n))
    assert all(u != v for u, v in (g.edge_ends(i) for i in range(1, 2 * n)))


def test_only_cord_of_one_letter_has_a_loop():
    g = dg.build_graph(dg.tangled_cord(1))
    assert g.edge_ends(1) == (1, 1)


# -------------------------------------------------------------- neighbors

def test_are_neighbors_spec_cases():
    g = dg.build_graph(dg.parse("1212"))
    assert dg.are_neighbors(g, 2, 1, 2) is False  # straight through at 2
    assert dg.are_neighbors(g, 1, 1, 2) is True   # corner at 1
    g2 = dg.build_graph(dg.parse("112323"))
    assert dg.are_neighbors(g2, 3, 3, 5) is True


def test_are_neighbors_accepts_virtual_indices():
    g = dg.build_graph(dg.parse("1212"))
    assert dg.are_neighbors(g, 1, 0, 1) is False
    assert dg.are_neighbors(g, 1, 0, 2) is True
    assert dg.are_neighbors(g, 2, 3, 4) is False


def test_are_neighbors_rejects_bad_arguments():
    g = dg.build_graph(dg.parse("1212"))
    with pytest.raises(dg.NotIncidentError):
        dg.are_neighbors(g, 1, 1, 4)  # e_4 touches only vertex 2
    with pytest.raises(dg.NotIncidentError):
        dg.are_neighbors(g, 1, 4, 1)  # the same, as the first edge
    with pytest.raises(dg.NotIncidentError):
        dg.are_neighbors(g, 9, 1, 2)
    with pytest.raises(dg.InputError):
        dg.are_neighbors(g, 1, 2, 2)


@given(dows())
def test_nonconsecutive_incident_edges_always_meet_at_corners(word):
    g = dg.build_graph(word)
    for v in g.vertices:
        real = g.real_edges_at(v)
        for a, b in combinations(real, 2):
            if b - a >= 2:
                assert dg.are_neighbors(g, v, a, b)


# --------------------------------------------------------------- paths

def test_path_shape_constraints():
    with pytest.raises(dg.InputError):
        dg.PolygonalPath((), ())
    with pytest.raises(dg.InputError):
        dg.PolygonalPath((1, 2), ())


def test_path_equals_its_reverse():
    p = dg.PolygonalPath((1, 2, 3), (2, 5))
    q = dg.PolygonalPath((3, 2, 1), (5, 2))
    assert p == q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1


def test_singleton_is_polygonal():
    g = dg.build_graph(dg.parse("1212"))
    assert dg.is_polygonal(g, dg.PolygonalPath((1,), ()))
    assert not dg.is_polygonal(g, dg.PolygonalPath((7,), ()))


def test_corner_path_is_polygonal():
    g = dg.build_graph(dg.parse("112323"))
    assert dg.is_polygonal(g, dg.PolygonalPath((1, 2, 3), (2, 5)))


def test_straight_through_path_is_rejected():
    g = dg.build_graph(dg.parse("112323"))
    # e_2 and e_3 continue straight through vertex 2
    assert not dg.is_polygonal(g, dg.PolygonalPath((1, 2, 3), (2, 3)))


def test_vertex_repeats_are_rejected():
    g = dg.build_graph(dg.parse("1212"))
    assert not dg.is_polygonal(g, dg.PolygonalPath((1, 2, 1), (1, 2)))


def test_wrong_endpoints_are_rejected():
    g = dg.build_graph(dg.parse("112323"))
    assert not dg.is_polygonal(g, dg.PolygonalPath((1, 2), (4,)))
    assert not dg.is_polygonal(g, dg.PolygonalPath((1, 2), (9,)))


# ----------------------------------------------------------------- DOT

NODE_LINE = re.compile(r'^  (start|end) \[shape=point\];$')
VERTEX_LINE = re.compile(r'^  v\d+ \[label="\d+", straight_through="\(e\d+,e\d+\),\(e\d+,e\d+\)"\];$')
EDGE_LINE = re.compile(r'^  (start|end|v\d+) -- (start|end|v\d+) \[label="e\d+"\];$')
LABEL_LINE = re.compile(r'^  label=".+";$')


def _check_dot_structure(text: str, n: int) -> None:
    lines = text.strip().splitlines()
    assert lines[0] == "graph assembly {"
    assert lines[-1] == "}"
    body = lines[1:-1]
    vertex_lines = [ln for ln in body if VERTEX_LINE.match(ln)]
    edge_lines = [ln for ln in body if EDGE_LINE.match(ln)]
    point_lines = [ln for ln in body if NODE_LINE.match(ln)]
    label_lines = [ln for ln in body if LABEL_LINE.match(ln)]
    assert len(vertex_lines) == n
    assert len(point_lines) == 2
    assert len(edge_lines) == 2 * n + 1
    assert len(label_lines) == 1
    assert len(body) == len(vertex_lines) + len(edge_lines) + len(point_lines) + len(label_lines)
    labels = [re.search(r'label="(e\d+)"', ln).group(1) for ln in edge_lines]
    assert labels == [f"e{k}" for k in range(2 * n + 1)]


def test_dot_output_structure_small_example():
    g = dg.build_graph(dg.parse("11"))
    text = dg.to_dot(g)
    _check_dot_structure(text, 1)
    assert '  v1 -- v1 [label="e1"];' in text


def test_dot_output_structure_census_words(census_by_n):
    for n in (2, 3, 4):
        for word in census_by_n[n].classes:
            _check_dot_structure(dg.to_dot(dg.build_graph(word)), n)


def test_dot_output_is_deterministic():
    word = dg.parse("12132434")
    assert dg.to_dot(dg.build_graph(word)) == dg.to_dot(dg.build_graph(word))
