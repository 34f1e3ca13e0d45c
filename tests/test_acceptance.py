"""Acceptance gate: one test per headline claim the package must deliver.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.  The heavy shared work (full censuses for n = 1..6) lives in the
session-scoped ``census_by_n`` fixture.
"""

from __future__ import annotations

import time

import dowgraph as dg
from dowgraph.oracles import alternating_mask


def test_01_tangled_cord_counts():
    """Counting Hamiltonian sets of the tangled cords with up to eight
    letters gives 1, 4, 12, 33, 88, 232, 609, 1596, within ten seconds."""
    started = time.perf_counter()
    counts = [
        dg.count_hamiltonian_sets(dg.build_graph(dg.tangled_cord(n)))
        for n in range(1, 9)
    ]
    elapsed = time.perf_counter() - started
    assert counts == [1, 4, 12, 33, 88, 232, 609, 1596]
    assert elapsed < 10.0


def test_02_bound_never_exceeded(census_by_n):
    """No class with up to six letters has more Hamiltonian sets than
    F_(2n+1) - 1, and the six-letter census finishes within five minutes."""
    for n in range(1, 7):
        data = census_by_n[n]
        for record in data.records:
            assert record.count is not None
            assert record.count <= record.bound
        assert data.summary.bound_violations == 0
    assert census_by_n[6].seconds < 300.0


def test_03_tangled_cord_is_the_unique_attainer(census_by_n):
    """For every n up to six, exactly one class reaches the bound and its
    representative is the tangled cord."""
    for n in range(1, 7):
        assert census_by_n[n].summary.maximal_classes == (dg.tangled_cord(n),)


def test_04_three_verdicts_coincide(census_by_n):
    """On every class with up to five letters the parity test, the
    endpoint-pairing test, and direct enumeration agree about maximality."""
    for n in range(1, 6):
        for record in census_by_n[n].records:
            word = record.representative
            parity = dg.even_split_witness(word) is None
            endpoint = dg.paired_endpoints_witness(dg.build_graph(word)) is None
            counted = record.count == record.bound
            assert parity == endpoint == counted == record.is_maximal, dg.render(word)


def test_05_fingerprints_are_injective_and_constrained(census_by_n):
    """Edge masks of Hamiltonian sets never repeat, never contain two
    consecutive edges, and never equal the full alternating selection."""
    for n in range(1, 5):
        forbidden = alternating_mask(n)
        for word in census_by_n[n].classes:
            graph = dg.build_graph(word)
            masks = [dg.edge_mask(graph, hs) for hs in dg.enumerate_hamiltonian_sets(graph)]
            assert len(set(masks)) == len(masks)
            for mask in masks:
                assert mask & (mask << 1) == 0
                assert mask != forbidden


def test_06_compositions_versus_cords(census_by_n):
    """Through six letters: a word that splits into two complete pieces is
    never maximal, and a framing cord exists exactly when it does not split."""
    for n in range(1, 7):
        for record in census_by_n[n].records:
            if record.is_composition:
                assert not record.is_maximal
            assert record.has_framing_cord == (not record.is_composition)


def test_07_greedy_cord_frames_every_unsplit_word(census_by_n):
    """The greedy extraction yields a verified framing cord, opening and
    closing the word, on every non-composition class through six letters."""
    for n in range(1, 7):
        for record in census_by_n[n].records:
            if record.is_composition:
                continue
            word = record.representative
            cord = dg.find_framing_cord(word)
            assert cord is not None
            assert dg.is_framing_cord(word, cord)
            occ = dg.occurrences(word)
            assert occ[cord[0]][0] == 1
            assert occ[cord[-1]][1] == 2 * n


def test_08_cord_construction_yields_even_splits(census_by_n):
    """Whenever the framing cord is shorter than the alphabet, the recursive
    construction returns a non-empty subset of the cord whose deletion
    leaves only even pieces.  Zero failures through six letters."""
    checked = 0
    for n in range(1, 7):
        for record in census_by_n[n].records:
            if record.is_composition:
                continue
            word = record.representative
            cord = dg.find_framing_cord(word)
            if len(cord) == n:
                continue
            sigma = dg.even_split_from_cord(word.letters, cord)
            assert sigma
            assert sigma <= set(cord)
            assert dg.delete(word, sigma).all_even()
            checked += 1
    assert checked > 0


def test_09_minimal_splits_project_to_tangled_cords(census_by_n):
    """Every non-maximal class through six letters has a minimal even split
    whose projection is a tangled cord.  Zero failures."""
    checked = 0
    for n in range(1, 7):
        for record in census_by_n[n].records:
            if record.is_maximal:
                continue
            result = dg.minimal_even_split(record.representative)
            assert result is not None
            sigma, projection = result
            assert dg.is_tangled_cord(projection)
            assert dg.Dow(dg.project(record.representative, sigma)) == projection
            checked += 1
    assert checked > 0


def test_10_enumeration_matches_independent_oracle(census_by_n):
    """The mask-driven enumeration and a path-by-path exhaustive search
    produce identical Hamiltonian sets on every class through four letters
    and on the five-letter tangled cord."""
    words = [w for n in range(1, 5) for w in census_by_n[n].classes]
    words.append(dg.tangled_cord(5))
    for word in words:
        graph = dg.build_graph(word)
        fast = set(dg.enumerate_hamiltonian_sets(graph))
        slow = set(dg.brute_force_hamiltonian_sets(graph))
        assert fast == slow, dg.render(word)


def test_11_worked_examples():
    """The deletion/projection bookkeeping and the framing-cord checker
    reproduce the documented worked examples."""
    word = dg.parse("1342134856757286")
    sigma = {2, 5, 8}
    split = dg.delete(word, sigma)
    assert [s.letters for s in split.segments] == [
        (1, 3, 4), (1, 3, 4), (6, 7), (7,), (6,),
    ]
    assert [(s.start, s.end) for s in split.segments] == [
        (1, 3), (5, 7), (10, 11), (13, 13), (16, 16),
    ]
    assert split.lengths() == (3, 3, 2, 1, 1)
    assert dg.project(word, sigma) == (2, 8, 5, 5, 2, 8)

    framed = dg.parse("123415264536")
    assert dg.find_framing_cord(framed) == (1, 3, 6)
    for cord in [(1, 3, 6), (1, 4, 6), (1, 2, 5, 6)]:
        assert dg.is_framing_cord(framed, cord)
