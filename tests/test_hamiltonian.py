"""Fingerprints, mask enumeration, and the exact Hamiltonian-set count."""

from __future__ import annotations

import itertools
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dowgraph as dg
from dowgraph.counting import _START, _read
from dowgraph.hamiltonian import mask_to_bits, nonconsecutive_masks
from dowgraph.oracles import alternating_mask

from conftest import dows, renamed_dows


# ------------------------------------------------------------ fibonacci

def test_fibonacci_prefix():
    assert [dg.fibonacci(k) for k in range(18)] == [
        0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597,
    ]


# ---------------------------------------------------------------- masks

def test_masks_small_case():
    assert nonconsecutive_masks(3) == (0, 1, 2, 4, 5)


def test_masks_are_ascending_and_valid():
    for m in range(11):
        masks = nonconsecutive_masks(m)
        assert list(masks) == sorted(masks)
        assert len(set(masks)) == len(masks)
        for mask in masks:
            assert mask < (1 << m)
            assert mask & (mask << 1) == 0


@pytest.mark.parametrize("m", range(21))
def test_mask_count_is_fibonacci(m):
    assert len(nonconsecutive_masks(m)) == dg.fibonacci(m + 2)


@pytest.mark.parametrize("m", range(17))
def test_masks_match_exhaustive_scan(m):
    brute = tuple(x for x in range(1 << m) if x & (x << 1) == 0)
    assert nonconsecutive_masks(m) == brute


def test_alternating_mask():
    assert alternating_mask(1) == 0b1
    assert alternating_mask(2) == 0b101
    assert alternating_mask(3) == 0b10101
    for n in range(1, 12):
        mask = alternating_mask(n)
        assert bin(mask).count("1") == n
        assert mask & (mask << 1) == 0
        assert mask.bit_length() == 2 * n - 1


def test_mask_to_bits_orientation():
    # e_1 owns the leftmost character
    assert mask_to_bits(0b1, 5) == "10000"
    assert mask_to_bits(0b10100, 5) == "00101"
    assert mask_to_bits(0, 3) == "000"


@pytest.mark.parametrize(
    "call",
    [
        lambda: dg.fibonacci(-1),
        lambda: nonconsecutive_masks(-1),
        lambda: mask_to_bits(0b101, -1),
    ],
    ids=["fibonacci", "nonconsecutive_masks", "mask_to_bits"],
)
def test_negative_sizes_are_input_errors(call):
    with pytest.raises(dg.InputError):
        call()


# ----------------------------------------------------------- edge_mask

def test_edge_mask_of_all_singletons():
    g = dg.build_graph(dg.parse("112323"))
    hs = frozenset(dg.PolygonalPath((v,), ()) for v in (1, 2, 3))
    assert dg.edge_mask(g, hs) == 0


def test_edge_mask_worked_example():
    g = dg.build_graph(dg.parse("112323"))
    hs = frozenset({dg.PolygonalPath((1, 2, 3), (2, 5))})
    assert dg.edge_mask(g, hs) == (1 << 1) | (1 << 4)


def test_edge_mask_rejects_non_hamiltonian_input():
    g = dg.build_graph(dg.parse("112323"))
    # missing vertex 3
    partial = frozenset({dg.PolygonalPath((1, 2), (2,))})
    with pytest.raises(dg.InvalidHamiltonianSetError):
        dg.edge_mask(g, partial)
    # overlapping vertex sets
    overlap = frozenset({
        dg.PolygonalPath((1, 2), (2,)),
        dg.PolygonalPath((2, 3), (3,)),
    })
    with pytest.raises(dg.InvalidHamiltonianSetError):
        dg.edge_mask(g, overlap)


def test_straight_through_path_is_no_hamiltonian_set():
    # 1-2-3 on e_1, e_2 of 123123 covers every vertex but runs straight
    # through vertex 2, so it is no polygonal path
    g = dg.build_graph(dg.parse("123123"))
    assert not dg.is_hamiltonian_set(g, frozenset({dg.PolygonalPath((1, 2, 3), (1, 2))}))


# ------------------------------------------------- mask -> set decoding

def test_adjacent_bits_are_refused():
    g = dg.build_graph(dg.parse("1212"))
    with pytest.raises(dg.ConsecutiveEdgesError):
        dg.hamiltonian_set_from_mask(g, 0b11)


def test_out_of_range_bits_are_refused():
    g = dg.build_graph(dg.parse("11"))
    with pytest.raises(dg.ConsecutiveEdgesError):
        dg.hamiltonian_set_from_mask(g, 0b10)


def test_parallel_edge_pair_is_invalid():
    # e_1 and e_3 of 1212 both join vertices 1 and 2: a closed curve
    g = dg.build_graph(dg.parse("1212"))
    assert dg.hamiltonian_set_from_mask(g, 0b101) is None


def test_loop_edge_is_invalid():
    g = dg.build_graph(dg.parse("11"))
    assert dg.hamiltonian_set_from_mask(g, 0b1) is None


def test_a_cycle_beside_a_path_is_invalid():
    # e_2 is the path 1-2; e_5, e_7 and e_9 close the triangle 3-4-5
    g = dg.build_graph(dg.parse("1122343545"))
    assert dg.hamiltonian_set_from_mask(g, 0b101010010) is None


def test_valid_mask_decodes_to_expected_paths():
    g = dg.build_graph(dg.parse("112323"))
    hs = dg.hamiltonian_set_from_mask(g, (1 << 1) | (1 << 4))
    assert hs is not None
    assert dg.PolygonalPath((1, 2, 3), (2, 5)) in hs
    assert sum(len(p.edges) for p in hs) == 2


@given(dows())
@settings(max_examples=40)
def test_mask_roundtrip(word):
    g = dg.build_graph(word)
    for mask in dg.nonconsecutive_masks(g.num_real_edges):
        hs = dg.hamiltonian_set_from_mask(g, mask)
        if hs is not None:
            assert dg.edge_mask(g, hs) == mask
            assert dg.is_hamiltonian_set(g, hs)


# -------------------------------------------------------------- counting

@pytest.mark.parametrize("text,expected", [
    ("11", 1),
    ("1122", 2),
    ("1221", 3),
    ("1212", 4),
    ("112323", 7),
])
def test_counts_on_small_words(text, expected):
    assert dg.count_hamiltonian_sets(dg.build_graph(dg.parse(text))) == expected


def test_count_on_three_letter_cord():
    g = dg.build_graph(dg.tangled_cord(3))
    assert dg.count_hamiltonian_sets(g) == 12


@given(dows())
@settings(max_examples=30)
def test_count_matches_enumeration(word):
    g = dg.build_graph(word)
    sets = dg.enumerate_hamiltonian_sets(g)
    assert dg.count_hamiltonian_sets(g) == len(sets)
    assert len(set(sets)) == len(sets)


@given(dows())
@settings(max_examples=30)
def test_count_is_reversal_invariant(word):
    flipped = dg.reverse_word(word)
    assert dg.count_hamiltonian_sets(dg.build_graph(word)) == \
        dg.count_hamiltonian_sets(dg.build_graph(flipped))


@given(dows(max_n=8))
@settings(max_examples=25, deadline=None)
def test_frontier_count_matches_mask_scan_and_brute_force(word):
    g = dg.build_graph(word)
    count = dg.count_hamiltonian_sets(g)
    assert count == len(dg.enumerate_hamiltonian_sets(g))
    assert count == len(dg.brute_force_hamiltonian_sets(g))


@st.composite
def word_lists(draw):
    """Unsorted words with mixed n <= 8, including a word right before a
    longer word it is a prefix of, and a repeat."""
    words = draw(st.lists(dows(max_n=8), max_size=6))
    base = draw(dows(max_n=7))
    tail = draw(dows(max_n=8 - base.n))
    longer = dg.Dow(base.letters + tuple(a + base.n for a in tail.letters))
    at = draw(st.integers(min_value=0, max_value=len(words)))
    words[at:at] = [base, longer]
    words.insert(draw(st.integers(min_value=0, max_value=len(words))), draw(st.sampled_from(words)))
    return words


@given(word_lists())
@settings(max_examples=50, deadline=None)
def test_batch_count_matches_per_word_counts(words):
    expected = [dg.count_hamiltonian_sets(dg.build_graph(w)) for w in words]
    assert dg.count_words(words) == expected


def test_census_six_batch_total():
    # the counting programme's whole census 6 batch, one sum to pin it
    assert sum(dg.count_words(dg.enumerate_dow_classes(6))) == 815377


def test_batch_count_through_shared_and_repeated_prefixes():
    texts = ["11", "1122", "11", "1122", "1122", "112233", "1212", "11", "121323", "1212"]
    words = [dg.parse(t) for t in texts]
    assert dg.count_words(words) == [1, 2, 1, 2, 2, 4, 4, 1, 12, 4]
    assert dg.count_words(reversed(words)) == [4, 12, 1, 4, 4, 2, 2, 1, 2, 1]
    assert dg.count_words([]) == []


def test_reading_on_from_every_prefix_state_gives_the_count():
    # _read leaves the state it is given as it was, so the state after any
    # prefix can be read on from, and more than once, as a walk of the
    # canonical trie needs; every prefix state is made before any is reused
    for n in range(1, 6):
        for word in dg.enumerate_dow_classes(n):
            w = word.letters
            expected = dg.count_words([word])
            prefix_states = list(itertools.accumulate(w, _read, initial=_START))
            assert len(prefix_states) == len(w) + 1
            for k, state in enumerate(prefix_states):
                for _ in range(2):
                    states = reduce(_read, w[k:], state)[0]
                    assert [sum(map(sum, states.values()))] == expected, (word, k)


@given(renamed_dows(max_n=8, max_letter=10**9))
@settings(max_examples=40, deadline=None)
def test_batch_count_ignores_renaming(pair):
    word, renamed = pair
    expected = dg.count_hamiltonian_sets(dg.build_graph(word))
    assert dg.count_words([word, renamed, dg.reverse_word(renamed)]) == [expected] * 3


@pytest.mark.parametrize("n,expected", [(12, 29401), (13, 70981), (14, 171364)])
def test_count_on_interleaved_words(n, expected):
    # 1 2 ... n 1 2 ... n keeps every letter open at once; values from the mask scan
    g = dg.build_graph(dg.Dow(tuple(range(1, n + 1)) * 2))
    assert dg.count_hamiltonian_sets(g) == expected


@pytest.mark.parametrize("n,seed,expected", [
    (26, 2, 34_348_278_573),
    (30, 4, 1_856_523_941_140),
    (33, 7, 43_631_216_793_088),
])
def test_count_on_wide_random_words(n, seed, expected):
    # cut width 17..19, far wider than the n <= 8 words the oracles reach;
    # values from the partition-state programme the mate array replaced
    letters = list(range(1, n + 1)) * 2
    random.Random(seed).shuffle(letters)
    word = dg.Dow(tuple(letters))
    renamed = dg.Dow(tuple(n + 1 - a for a in letters))
    assert dg.count_words([word, dg.reverse_word(word), renamed]) == [expected] * 3


def _pairs(n):
    return dg.Dow(tuple(a for a in range(1, n + 1) for _ in (0, 1)))


@pytest.mark.parametrize("word,expected", [
    pytest.param(dg.tangled_cord(2000), dg.fibonacci(4001) - 1, id="tangled-2000"),
    pytest.param(_pairs(10), 2 ** 9, id="pairs-10"),
    pytest.param(_pairs(2000), 2 ** 1999, id="pairs-2000"),
])
def test_count_on_long_narrow_words(word, expected):
    # at most three slots are open at once, reused all the way down; in
    # 1 1 2 2 ... n n the loops are never taken, and any subset of the
    # n - 1 edges between neighbouring pairs is a Hamiltonian set
    assert dg.count_words([word]) == [expected]


def test_tangled_cord_attains_bound_up_to_sixty():
    for n in range(1, 61):
        g = dg.build_graph(dg.tangled_cord(n))
        assert dg.count_hamiltonian_sets(g) == dg.fibonacci(2 * n + 1) - 1, n


def test_enumeration_is_in_ascending_mask_order():
    g = dg.build_graph(dg.tangled_cord(3))
    masks = [dg.edge_mask(g, hs) for hs in dg.enumerate_hamiltonian_sets(g)]
    assert masks == sorted(masks)
    assert masks[0] == 0


def _scan_sets(graph):
    """Oracle for the enumeration: decode every mask without adjacent ones,
    ascending, and keep the masks that are fingerprints."""
    out = []
    for mask in nonconsecutive_masks(graph.num_real_edges):
        hamset = dg.hamiltonian_set_from_mask(graph, mask)
        if hamset is not None:
            out.append(hamset)
    return out


def test_enumeration_matches_scan_on_every_small_word():
    words = 0
    for n in range(1, 6):
        for word in dg.iter_canonical_words(n):
            # the reversal meets its labels out of order, unlike the word
            for variant in (word, dg.reverse_word(word)):
                g = dg.build_graph(variant)
                assert dg.enumerate_hamiltonian_sets(g) == _scan_sets(g), dg.render(variant)
            words += 1
    assert words == 1069


@given(renamed_dows(max_n=9), st.booleans())
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_scan_on_relabelled_words(pair, reverse):
    _, word = pair
    if reverse:
        word = dg.reverse_word(word)
    g = dg.build_graph(word)
    assert dg.enumerate_hamiltonian_sets(g) == _scan_sets(g)


@pytest.mark.parametrize("n", range(1, 11))
def test_enumeration_of_tangled_cord_attains_bound(n):
    g = dg.build_graph(dg.tangled_cord(n))
    sets = dg.enumerate_hamiltonian_sets(g)
    assert len(sets) == dg.fibonacci(2 * n + 1) - 1 == dg.count_hamiltonian_sets(g)


@given(dows())
@settings(max_examples=30)
def test_path_count_complements_edge_count(word):
    g = dg.build_graph(word)
    for hs in dg.enumerate_hamiltonian_sets(g):
        k = sum(len(p.edges) for p in hs)
        assert k <= word.n - 1
        assert len(hs) == word.n - k


# ------------------------------------------------------------ the oracle

@pytest.mark.parametrize("text", ["11", "1122", "1212", "112323", "121323", "12132434"])
def test_brute_force_agrees_on_fixed_words(text):
    g = dg.build_graph(dg.parse(text))
    assert set(dg.brute_force_hamiltonian_sets(g)) == set(dg.enumerate_hamiltonian_sets(g))


@given(dows(max_n=4))
@settings(max_examples=25, deadline=None)
def test_brute_force_agrees_everywhere_small(word):
    g = dg.build_graph(word)
    assert set(dg.brute_force_hamiltonian_sets(g)) == set(dg.enumerate_hamiltonian_sets(g))


def test_brute_force_refuses_big_graphs():
    g = dg.build_graph(dg.tangled_cord(9))
    with pytest.raises(dg.TooLargeError):
        dg.brute_force_hamiltonian_sets(g)


# ------------------------------------------------------------ formatting

def test_format_sorted_by_path():
    g = dg.build_graph(dg.parse("112323"))
    hs = dg.hamiltonian_set_from_mask(g, (1 << 1) | (1 << 4))
    assert dg.format_hamiltonian_set(hs) == "[1-2-3]"
    singles = dg.hamiltonian_set_from_mask(g, 0)
    assert dg.format_hamiltonian_set(singles) == "[1][2][3]"
