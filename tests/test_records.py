"""The value contract of the records every layer returns.

``Dow``, ``Segment``, ``SubwordSplit``, ``EvenSplit``, ``MaximalityReport``,
``CensusRecord``, ``CensusSummary`` and ``PolygonalPath`` are immutable
values: ``==`` and ``hash`` follow the field tuple, and the repr names every
field.  Set iteration order, and so output order, follows their hash
values: a Hamiltonian set is a frozenset of paths.  The census pickles every
representative it sends back from a worker process and builds its records
from those rows.  ``AssemblyGraph`` holds a dict, so it is equal only to
itself and hashes by identity.
"""

from __future__ import annotations

import copy
import pickle

import pytest

import dowgraph as dg
from dowgraph.maximality import EvenSplit, MaximalityReport

_SEGMENT = dg.Segment(2, 3, (4, 5))
_SPLIT = EvenSplit(frozenset({1}), dg.Dow((1, 1)))
_SPLIT_TEXT = "EvenSplit(sigma=frozenset({1}), projection=Dow(letters=(1, 1)))"
_REPORT_FIELDS = (dg.Dow((1, 1, 2, 2)), 2, True, None, _SPLIT)
_RECORD_FIELDS = (dg.Dow((1, 1)), 1, 1, True, False, True)
_SUMMARY_FIELDS = (1, 1, (dg.Dow((1, 1)),), 0, 0, ())

VALUES = [
    pytest.param(dg.Dow((1, 2, 1, 2)), dg.Dow((1, 2, 1, 2)), dg.Dow((1, 1, 2, 2)),
                 ((1, 2, 1, 2),), "Dow(letters=(1, 2, 1, 2))", id="Dow"),
    pytest.param(_SEGMENT, dg.Segment(2, 3, (4, 5)), dg.Segment(2, 4, (4, 5)),
                 (2, 3, (4, 5)), "Segment(start=2, end=3, letters=(4, 5))", id="Segment"),
    pytest.param(dg.SubwordSplit((_SEGMENT,)), dg.SubwordSplit((dg.Segment(2, 3, (4, 5)),)),
                 dg.SubwordSplit(()), ((_SEGMENT,),),
                 "SubwordSplit(segments=(Segment(start=2, end=3, letters=(4, 5)),))",
                 id="SubwordSplit"),
    pytest.param(_SPLIT, EvenSplit(frozenset({1}), dg.Dow((1, 1))),
                 EvenSplit(frozenset({2}), dg.Dow((2, 2))), (frozenset({1}), dg.Dow((1, 1))),
                 _SPLIT_TEXT, id="EvenSplit"),
    pytest.param(MaximalityReport(*_REPORT_FIELDS), dg.analyze(dg.parse("2211")),
                 dg.analyze(dg.parse("1212")), _REPORT_FIELDS,
                 "MaximalityReport(word=Dow(letters=(1, 1, 2, 2)), count=2, "
                 f"is_composition=True, framing_cord=None, minimal_even_split={_SPLIT_TEXT})",
                 id="MaximalityReport"),
    pytest.param(dg.CensusRecord(*_RECORD_FIELDS), dg.census_records(1)[0],
                 dg.CensusRecord(dg.Dow((1, 1)), 1, 1, False, False, True), _RECORD_FIELDS,
                 "CensusRecord(representative=Dow(letters=(1, 1)), count=1, bound=1, "
                 "is_maximal=True, is_composition=False, has_framing_cord=True)",
                 id="CensusRecord"),
    # the summary's failures default to none
    pytest.param(dg.CensusSummary(*_SUMMARY_FIELDS[:-1]), dg.run_census(1),
                 dg.CensusSummary(*_SUMMARY_FIELDS[:-1], (("tangled cord not maximal", ()),)),
                 _SUMMARY_FIELDS,
                 "CensusSummary(n=1, total_classes=1, maximal_classes=(Dow(letters=(1, 1)),), "
                 "bound_violations=0, equivalence_failures=0, failures=())",
                 id="CensusSummary"),
    pytest.param(dg.PolygonalPath((1, 2, 3), (2, 5)), dg.PolygonalPath((3, 2, 1), (5, 2)),
                 dg.PolygonalPath((1, 2, 3), (2, 3)), ((1, 2, 3), (2, 5)),
                 "PolygonalPath(vertices=(1, 2, 3), edges=(2, 5))", id="PolygonalPath"),
]


@pytest.mark.parametrize("value, equal, unequal, fields, text", VALUES)
def test_equality_holds_within_one_class_only(value, equal, unequal, fields, text):
    assert value == equal and not value != equal
    assert value != unequal and not value == unequal
    # nor its last field: a Dow's is its letter tuple
    for foreign in (fields, fields[-1], None, object(), text):
        assert value != foreign and not value == foreign


@pytest.mark.parametrize("value, equal, unequal, fields, text", VALUES)
def test_hash_and_repr_are_those_of_the_field_tuple(value, equal, unequal, fields, text):
    assert hash(value) == hash(equal) == hash(fields)
    assert repr(value) == repr(equal) == text


@pytest.mark.parametrize("value, equal, unequal, fields, text", VALUES)
def test_records_refuse_assignment(value, equal, unequal, fields, text):
    for name in (*type(value).__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == equal


def _copies(value) -> list:
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    # _restore sets the fields as unpickling does
    return copies + [copy.copy(value), copy.deepcopy(value), type(value)._restore(value._fields())]


@pytest.mark.parametrize("value, equal, unequal, fields, text", VALUES)
def test_records_survive_pickle_and_copy(value, equal, unequal, fields, text):
    for other in _copies(value):
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value) and repr(other) == text


def test_census_records_cross_worker_processes(monkeypatch):
    # two workers even on a one-CPU machine, so the rows really are pickled;
    # the parent builds each record and its word from them
    monkeypatch.setattr(dg.census.os, "cpu_count", lambda: 2)
    serial = dg.census_records(5)
    fanned = dg.census_records(5, threads=2)
    assert len(fanned) == len(serial) == 513
    for back, here in zip(fanned, serial):
        assert type(back) is dg.CensusRecord
        assert type(back.representative) is type(here.representative) is dg.Dow
        assert back == here and hash(back) == hash(here) and repr(back) == repr(here)


# ------------------------------------------------------ the one constructor
# Every plain record takes its fields in slot order, positionally or by
# keyword, through the constructor of ``words._Frozen``.

RECORDS = [
    pytest.param(dg.Segment, (2, 3, (4, 5)), id="Segment"),
    pytest.param(dg.SubwordSplit, ((dg.Segment(2, 3, (4, 5)),),), id="SubwordSplit"),
    pytest.param(dg.AssemblyGraph, dg.build_graph(dg.parse("1212")).__getstate__(),
                 id="AssemblyGraph"),
    pytest.param(EvenSplit, (frozenset({1}), dg.Dow((1, 1))), id="EvenSplit"),
    pytest.param(MaximalityReport, _REPORT_FIELDS, id="MaximalityReport"),
    pytest.param(dg.CensusRecord, _RECORD_FIELDS, id="CensusRecord"),
    pytest.param(dg.CensusSummary, _SUMMARY_FIELDS, id="CensusSummary"),
]


@pytest.mark.parametrize("cls, fields", RECORDS)
def test_positional_and_keyword_construction_agree(cls, fields):
    (first, value), *rest = zip(cls.__slots__, fields)
    for built in (cls(*fields), cls(**dict(zip(cls.__slots__, fields))), cls(value, **dict(rest))):
        assert type(built) is cls and built.__getstate__() == fields


@pytest.mark.parametrize("cls, fields", RECORDS)
def test_a_bad_field_list_is_a_type_error(cls, fields):
    (first, value), *rest = zip(cls.__slots__, fields)
    with pytest.raises(TypeError, match="missing"):
        cls(**dict(rest))
    with pytest.raises(TypeError, match="unknown"):
        cls(*fields, other=1)
    with pytest.raises(TypeError, match="twice"):
        cls(*fields, **{first: value})
    with pytest.raises(TypeError, match="takes"):
        cls(*fields, None)


def test_a_summary_without_failures_has_none():
    fields = dict(zip(dg.CensusSummary.__slots__, _SUMMARY_FIELDS[:-1]))
    assert dg.CensusSummary(*_SUMMARY_FIELDS[:-1]).failures == ()
    assert dg.CensusSummary(**fields).failures == ()
    with pytest.raises(TypeError, match="missing"):
        dg.CensusSummary(*_SUMMARY_FIELDS[:-2])


# ------------------------------------------------------ paths and graphs

def test_a_path_is_stored_in_its_smaller_direction():
    path = dg.PolygonalPath((3, 2, 1), (5, 2))
    assert (path.vertices, path.edges) == ((1, 2, 3), (2, 5))
    assert dg.PolygonalPath(vertices=(2,), edges=()) == dg.PolygonalPath((2,), ())


@pytest.mark.parametrize("make", [list, lambda t: (a for a in t)], ids=["list", "generator"])
def test_a_path_stores_tuples_whatever_sequences_it_is_given(make):
    path = dg.PolygonalPath(make((3, 2, 1)), make((5, 2)))
    assert type(path.vertices) is tuple and type(path.edges) is tuple
    assert path == dg.PolygonalPath((1, 2, 3), (2, 5))
    assert hash(path) == hash(dg.PolygonalPath((1, 2, 3), (2, 5)))


@pytest.mark.parametrize("vertices, edges", [((), ()), ((1, 2), ()), ((1,), (1,)),
                                             ((1, 2, 3), (1, 2, 3))])
def test_a_path_of_the_wrong_shape_is_an_input_error(vertices, edges):
    with pytest.raises(dg.InputError):
        dg.PolygonalPath(vertices, edges)


def test_a_graph_equals_only_itself():
    word = dg.parse("1212")
    graph, twin = dg.build_graph(word), dg.build_graph(word)
    assert graph == graph and not graph != graph
    assert graph != twin and not graph == twin
    assert hash(graph) == object.__hash__(graph)
    table = {graph: "graph", twin: "twin"}
    assert (table[graph], table[twin], len({graph, twin, graph})) == ("graph", "twin", 2)
    assert repr(graph) == repr(twin) == (
        "AssemblyGraph(word=Dow(letters=(1, 2, 1, 2)), straight_through={1: (frozenset({0, 1}), "
        "frozenset({2, 3})), 2: (frozenset({1, 2}), frozenset({3, 4}))}, "
        "edge_slots=((0, 1), (1, 0), (0, 1)), vertices=(1, 2))"
    )


def test_a_graph_refuses_assignment():
    graph = dg.build_graph(dg.parse("1212"))
    for name in ("word", "straight_through", "edge_slots", "vertices", "other"):
        with pytest.raises(AttributeError):
            setattr(graph, name, 1)
        with pytest.raises(AttributeError):
            delattr(graph, name)


def test_a_graph_survives_pickle_and_copy_as_a_new_graph():
    graph = dg.build_graph(dg.parse("121323"))
    for other in _copies(graph):
        assert type(other) is dg.AssemblyGraph
        assert other != graph and repr(other) == repr(graph)
        assert other.straight_through == graph.straight_through
        assert dg.count_hamiltonian_sets(other) == 12
        assert dg.to_dot(other) == dg.to_dot(graph)
