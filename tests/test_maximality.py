"""Parity witnesses, framing cords, even splits, and the full report."""

from __future__ import annotations

import json
import random
import time
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dowgraph as dg
from dowgraph.census import iter_canonical_words
from dowgraph.hamiltonian import nonconsecutive_masks
from dowgraph.oracles import paired_endpoints_witness, scan_even_split

from conftest import dows, renamed_dows


# ------------------------------------------------------- parity witness

@pytest.mark.parametrize("text,expected", [
    ("1122", {1}),
    ("121233", {3}),
    ("121332", {1, 2}),
    ("1212", None),
    ("1221", {1}),
    # the size-1 rule: the smallest label that works, whatever opens first
    ("2211", {1}),
    ("332211", {1}),
    # only the largest letter works alone: tc(4) has no witness
    ("1213243455", {5}),
    # the lone letter passes the parity rule, but a witness is proper
    ("11", None),
    ("77", None),
])
def test_witness_examples(text, expected):
    got = dg.even_split_witness(dg.parse(text))
    assert got == (None if expected is None else frozenset(expected))


def _flip(word):
    # labels n..1 where the word has 1..n, so they open in descending order
    return dg.Dow(tuple(word.n + 1 - a for a in word.letters))


@pytest.mark.parametrize("n", range(1, 61))
def test_tangled_cords_have_no_witness(n):
    cord = dg.tangled_cord(n)
    # read backwards or relabelled, the labels open out of ascending order
    for word in (cord, dg.reverse_word(cord), _flip(cord)):
        assert dg.even_split_witness(word) is None, dg.render(word)


def _gaps_all_even(positions, total):
    prev = 0
    for p in positions:
        if (p - prev - 1) % 2:
            return False
        prev = p
    return (total - prev) % 2 == 0


def _scan_witness(word):
    """Oracle: every proper non-empty letter subset, by ascending size and
    then in ``combinations`` order, with the gaps around its deleted
    positions tested directly, so a maximal word costs 2^n - 2 subset
    tests.
    """
    occ = dg.occurrences(word)
    letters = sorted(word.alphabet)
    total = len(word.letters)
    for size in range(1, len(letters)):
        for sigma in combinations(letters, size):
            positions = sorted(p for a in sigma for p in occ[a])
            if _gaps_all_even(positions, total):
                return frozenset(sigma)
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_witness_matches_scan_on_every_small_word(n):
    words = 0
    for word in dg.iter_canonical_words(n):
        # the reversal meets its labels out of order, unlike the word
        for variant in (word, dg.reverse_word(word)):
            assert dg.even_split_witness(variant) == _scan_witness(variant), (
                dg.render(variant)
            )
        words += 1
    # (2n-1)!!, one word per position matching
    assert words == prod(range(2 * n - 1, 0, -2))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_witness_takes_the_smallest_label_when_labels_open_out_of_order(n):
    # labels n..1 in opening order: the size-1 rule must pick the smallest
    # label that works, not the letter that opens first
    for word in dg.iter_canonical_words(n):
        flipped = dg.Dow(tuple(n + 1 - a for a in word.letters))
        assert dg.even_split_witness(flipped) == _scan_witness(flipped), dg.render(flipped)


def _block_reversed(n):
    """tc(n) with the middle third of its positions, L[2n//3 : 4n//3], read
    backwards, canonicalized.  Its smallest witness has n/3 letters when 3
    divides n, and many partial witnesses survive every smaller size."""
    letters = list(dg.tangled_cord(n).letters)
    letters[2 * n // 3:4 * n // 3] = letters[2 * n // 3:4 * n // 3][::-1]
    return dg.canonicalize(dg.Dow(letters))


def _larger_words():
    # the block-reversed family, forwards, backwards and relabelled n..1
    for n in range(1, 49):
        word = _block_reversed(n)
        yield from (word, dg.reverse_word(word), _flip(word))
    # seeded random words, relabelled, forwards and backwards: shuffles, and
    # tangled cords with a few positions swapped, whose witnesses run long
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(8, 40)
        letters = list(dg.tangled_cord(n).letters)
        if rng.random() < 0.2:
            rng.shuffle(letters)
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(2 * n), rng.randrange(2 * n)
            letters[i], letters[j] = letters[j], letters[i]
        labels = rng.sample(range(1, 10 * n), n)
        word = dg.Dow(labels[a - 1] for a in letters)
        yield from (word, dg.reverse_word(word))


def test_witness_matches_the_oracle_scan_on_larger_words():
    sizes = set()
    for word in _larger_words():
        witness = dg.even_split_witness(word)
        assert witness == scan_even_split(dg.occurrences(word)), dg.render(word)
        sizes.add(0 if witness is None else len(witness))
    # the words reach well past the one-letter witnesses
    assert len(sizes) > 15


def test_block_reversed_witness_is_a_third_of_the_word():
    # the sizes run in ascending order, so a search that turns exponential
    # fails at the first word over the bound rather than running on
    for n in range(24, 241, 12):
        word = _block_reversed(n)
        started = time.perf_counter()
        report = dg.analyze(word)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.25, (n, elapsed)
        split = report.minimal_even_split
        assert len(split.sigma) == n // 3
        assert dg.is_tangled_cord(split.projection)
        assert dg.delete(word, split.sigma).all_even()


@given(renamed_dows(max_n=9), st.booleans())
@settings(max_examples=100, deadline=None)
def test_witness_matches_scan_on_relabelled_words(pair, reverse):
    # labels out of first-occurrence order leave the scan's first witness
    # in opening order, which need not be the least by label
    _, word = pair
    if reverse:
        word = dg.reverse_word(word)
    assert dg.even_split_witness(word) == _scan_witness(word)


def _cord_composition(a, b):
    left = dg.tangled_cord(a).letters
    return dg.Dow(left + tuple(x + a for x in dg.tangled_cord(b).letters))


@pytest.mark.parametrize("n", range(2, 41))
def test_composition_witness_is_the_smaller_cord(n):
    for a in range(1, n // 2 + 1):
        word = _cord_composition(a, n - a)
        smaller = frozenset(range(1, a + 1))
        assert dg.even_split_witness(word) == smaller
        # backwards, the smaller cord keeps its letters
        assert dg.even_split_witness(dg.reverse_word(word)) == smaller
        # relabelled n..1 the smaller cord's letters become the largest,
        # unless both cords are as small, when the smaller labels win
        flipped = _flip(word)
        expected = smaller if 2 * a == n else frozenset(n + 1 - x for x in smaller)
        assert dg.even_split_witness(flipped) == expected
    # the split projects to the smaller cord with its labels descending
    top = max(expected)
    cord = dg.Dow(tuple(top + 1 - x for x in dg.tangled_cord(n // 2).letters))
    assert dg.minimal_even_split(flipped) == (expected, cord)
    if n <= 19:
        word = _cord_composition(n // 2, n - n // 2)
        assert dg.even_split_witness(word) == _scan_witness(word)


def _all_even_subsets(word):
    letters = sorted(word.alphabet)
    found = []
    for size in range(1, len(letters)):
        for sigma in combinations(letters, size):
            if dg.delete(word, set(sigma)).all_even():
                found.append(frozenset(sigma))
    return found


@given(dows())
@settings(max_examples=60, deadline=None)
def test_witness_matches_exhaustive_deletion(word):
    found = _all_even_subsets(word)
    witness = dg.even_split_witness(word)
    if witness is None:
        assert found == []
    else:
        assert dg.delete(word, witness).all_even()
        assert witness == min(found, key=lambda s: (len(s), tuple(sorted(s))))


# ------------------------------------------------- endpoint-pair witness

def test_endpoint_witness_on_loop_word():
    # the loop e_1 of 1122 touches vertex 1 twice, nothing else
    g = dg.build_graph(dg.parse("1122"))
    assert dg.paired_endpoints_witness(g) == 0b1


def test_endpoint_witness_agrees_with_parity(census_by_n):
    for n in range(1, 6):
        for word in census_by_n[n].classes:
            parity = dg.even_split_witness(word) is None
            endpoint = paired_endpoints_witness(dg.build_graph(word)) is None
            assert parity == endpoint, dg.render(word)


# ------------------------------------------------------------ the cord

def test_cord_pattern_values():
    assert dg.cord_pattern((1,)) == (1, 1)
    assert dg.cord_pattern((1, 2)) == (1, 2, 1, 2)
    assert dg.cord_pattern((1, 2, 3)) == (1, 2, 1, 3, 2, 3)
    assert dg.cord_pattern((1, 3, 6)) == (1, 3, 1, 6, 3, 6)
    with pytest.raises(dg.PreconditionViolatedError):
        dg.cord_pattern(())


def test_cord_pattern_is_a_tangled_cord():
    written_out = ["11", "1212", "121323", "12132434"]
    assert [dg.Dow(dg.cord_pattern(range(1, s + 1))) for s in range(1, 5)] == [
        dg.parse(text) for text in written_out
    ]
    # the tangled cord over 1..s: letters open in order, consecutive letters
    # interlock, and every other pair lies side by side; that fixes the
    # order of all 2s positions, so it fixes the word
    for s in range(1, 9):
        occ = dg.occurrences(dg.Dow(dg.cord_pattern(range(1, s + 1))))
        assert sorted(occ) == list(range(1, s + 1))
        for a in range(1, s + 1):
            for b in range(a + 1, s + 1):
                (a1, a2), (b1, b2) = occ[a], occ[b]
                if b == a + 1:
                    assert a1 < b1 < a2 < b2
                else:
                    assert a2 < b1


def _written_pattern(cord):
    """t_1 t_2 t_1 t_3 t_2 ... t_s t_(s-1) t_s by positions: t_k opens at
    2k - 2 and closes at 2k + 1, except that t_1 opens at 1 and t_s closes
    at 2s."""
    s = len(cord)
    out = [None] * (2 * s)
    for k, a in enumerate(cord, start=1):
        out[max(2 * k - 2, 1) - 1] = out[min(2 * k + 1, 2 * s) - 1] = a
    return tuple(out)


def test_cord_pattern_matches_the_written_pattern():
    labels = (7, 3, 12, 1, 40, 5, 9, 2)
    for s in range(1, 9):
        assert dg.cord_pattern(labels[:s]) == _written_pattern(labels[:s])
    for n in range(1, 61):
        assert dg.tangled_cord(n).letters == _written_pattern(range(1, n + 1))


def test_cord_pattern_is_defined_once():
    assert dg.maximality.cord_pattern is dg.words.cord_pattern is dg.cord_pattern
    assert dg.__all__.count("cord_pattern") == 1


FRAMED = "123415264536"


def test_framing_check_accepts_known_cords():
    word = dg.parse(FRAMED)
    for cord in [(1, 3, 6), (1, 4, 6), (1, 2, 5, 6)]:
        assert dg.is_framing_cord(word, cord)


def test_framing_check_rejects_bad_cords():
    word = dg.parse(FRAMED)
    assert not dg.is_framing_cord(word, ())
    assert not dg.is_framing_cord(word, (1, 1))
    assert not dg.is_framing_cord(word, (1, 9))
    assert not dg.is_framing_cord(word, (3, 1, 6))   # wrong opener
    assert not dg.is_framing_cord(word, (1, 3))      # wrong closer
    assert not dg.is_framing_cord(word, (1, 6))      # 1 and 6 never interlock


def _framing_oracle(word, cord):
    """Oracle for :func:`is_framing_cord`: its five conditions checked one by
    one, without relying on any of them to imply another."""
    cord = tuple(cord)
    if not cord:
        return False
    if len(set(cord)) != len(cord):
        return False
    if not set(cord) <= word.alphabet:
        return False
    if word.letters[0] != cord[0] or word.letters[-1] != cord[-1]:
        return False
    return tuple(a for a in word.letters if a in cord) == dg.cord_pattern(cord)


# letters that no word drawn by dows() has
_ABSENT = (98, 99)


@st.composite
def _words_and_cords(draw):
    word = draw(dows(max_n=7))
    letters = sorted(word.alphabet)
    kind = draw(st.sampled_from(["greedy", "empty", "ends", "repeated", "absent", "any"]))
    if kind == "greedy":
        return word, dg.find_framing_cord(word) or ()
    if kind == "empty":
        return word, ()
    if kind == "any":
        return word, tuple(draw(st.lists(st.sampled_from(letters + list(_ABSENT)), max_size=8)))
    # the rest open and close the word, so only the pattern can refuse them
    middle = draw(st.lists(st.sampled_from(letters), unique=True, max_size=word.n))
    at = draw(st.integers(0, len(middle)))
    if kind == "repeated":
        middle.insert(at, draw(st.sampled_from(letters)))
    elif kind == "absent":
        middle.insert(at, draw(st.sampled_from(_ABSENT)))
    return word, (word.letters[0], *middle, word.letters[-1])


@given(_words_and_cords())
@settings(max_examples=300, deadline=None)
def test_framing_check_agrees_with_its_oracle(pair):
    word, cord = pair
    assert dg.is_framing_cord(word, cord) == _framing_oracle(word, cord)


def test_framing_check_agrees_with_its_oracle_on_every_short_cord():
    symbols = (1, 2, 3, 4, _ABSENT[0])
    for n in range(1, 5):
        for word in dg.census.iter_canonical_words(n):
            for size in range(4):
                for cord in product(symbols, repeat=size):
                    assert dg.is_framing_cord(word, cord) == _framing_oracle(word, cord)


def test_greedy_cord_on_worked_example():
    assert dg.find_framing_cord(dg.parse(FRAMED)) == (1, 3, 6)


@pytest.mark.parametrize("n", range(1, 9))
def test_greedy_cord_of_tangled_cord_is_everything(n):
    assert dg.find_framing_cord(dg.tangled_cord(n)) == tuple(range(1, n + 1))


def _rescanning_framing_cord(word):
    """The greedy cord found by rescanning every letter at each step for the
    straddling one that reaches furthest: the oracle for the one-sweep
    :func:`find_framing_cord`."""
    occ = dg.occurrences(word)
    first = word.letters[0]
    cord = [first]
    end = occ[first][1]
    while end < len(word):
        best = None
        for a, (o1, o2) in occ.items():
            if o1 < end < o2 and (best is None or o2 > occ[best][1]):
                best = a
        if best is None:
            return None
        cord.append(best)
        end = occ[best][1]
    return tuple(cord)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_greedy_cord_matches_the_rescanning_greedy_on_every_word(n):
    for word in iter_canonical_words(n):
        assert dg.find_framing_cord(word) == _rescanning_framing_cord(word), word


def test_greedy_cord_matches_the_rescanning_greedy_on_tangled_cords():
    rng = random.Random(7)
    for n in range(1, 61):
        word = dg.tangled_cord(n)
        labels = rng.sample(range(1, 10 * n + 1), n)
        renamed = dg.Dow(labels[a - 1] for a in word.letters)
        for w in (word, dg.reverse_word(word), renamed, dg.reverse_word(renamed)):
            assert dg.find_framing_cord(w) == _rescanning_framing_cord(w), w


def test_greedy_cord_matches_the_rescanning_greedy_on_shuffled_words():
    rng = random.Random(11)
    for _ in range(500):
        letters = [a for a in range(1, rng.randint(1, 30) + 1) for _ in (0, 1)]
        rng.shuffle(letters)
        word = dg.Dow(letters)
        assert dg.find_framing_cord(word) == _rescanning_framing_cord(word), word


def test_compositions_have_no_cord():
    for text in ["1122", "112233", "12123434", "1233214554"]:
        assert dg.find_framing_cord(dg.parse(text)) is None


@given(dows())
@settings(max_examples=60, deadline=None)
def test_cord_exists_iff_word_does_not_split(word):
    cord = dg.find_framing_cord(word)
    split = dg.split_composition(word)
    assert (cord is None) == (split is not None)
    if cord is not None:
        assert dg.is_framing_cord(word, cord)


@given(dows())
@settings(max_examples=60, deadline=None)
def test_greedy_cord_straddles_and_reaches_furthest(word):
    cord = dg.find_framing_cord(word)
    if cord is None:
        return
    occ = dg.occurrences(word)
    for prev, cur in zip(cord, cord[1:]):
        end = occ[prev][1]
        assert occ[cur][0] < end < occ[cur][1]
        # no straddling letter reaches further right
        for a in word.alphabet:
            if occ[a][0] < end < occ[a][1]:
                assert occ[a][1] <= occ[cur][1]
    assert occ[cord[0]][0] == 1
    assert occ[cord[-1]][1] == len(word)


# ---------------------------------------------------------- even splits

def test_split_construction_frozen_examples():
    # cut at an even second occurrence
    assert dg.even_split_from_cord(dg.parse("123123").letters, (1, 3)) == {1}
    # reversal step first, then a cut
    assert dg.even_split_from_cord(dg.parse("12134324").letters, (1, 2, 4)) == {4}
    # the whole cord is the answer
    assert dg.even_split_from_cord(dg.parse("121332").letters, (1, 2)) == {1, 2}
    assert dg.even_split_from_cord(dg.parse("12132443").letters, (1, 2, 3)) == {1, 2, 3}
    # a one-letter cord has no cut
    assert dg.even_split_from_cord((1, 2, 2, 1), (1,)) == {1}
    # letters off the cord may occur any number of times: reversal, then a cut
    assert dg.even_split_from_cord((1, 4, 2, 4, 1, 4, 4, 2), (1, 2)) == {2}


def test_split_construction_preconditions():
    with pytest.raises(dg.PreconditionViolatedError):
        dg.even_split_from_cord((1, 2, 1), (1,))
    with pytest.raises(dg.PreconditionViolatedError):
        dg.even_split_from_cord(dg.tangled_cord(4).letters, (1, 2, 3, 4))
    with pytest.raises(dg.PreconditionViolatedError, match="does not fit"):
        dg.even_split_from_cord((1, 1, 2, 2), (1, 2, 3))
    with pytest.raises(dg.PreconditionViolatedError):
        dg.even_split_from_cord((1, 1, 2, 2), (2,))          # wrong opener
    with pytest.raises(dg.PreconditionViolatedError):
        dg.even_split_from_cord((1, 2, 1, 3, 2, 1), (1, 2))  # 1 shows up thrice
    with pytest.raises(dg.PreconditionViolatedError):
        dg.even_split_from_cord((1, 1, 2, 2, 3, 3), (1, 3))  # no interlocking
    with pytest.raises(dg.PreconditionViolatedError, match="does not frame"):
        dg.even_split_from_cord((1, 1, 2, 2), ())            # empty cord
    with pytest.raises(dg.PreconditionViolatedError, match="does not frame"):
        # a repeated cord letter, though the letters project to its pattern
        dg.even_split_from_cord((1, 2, 1, 3, 3, 1, 2, 1), (1, 2, 1))


@given(
    st.integers(0, 5).flatmap(lambda k: st.lists(st.integers(1, 5), min_size=2 * k,
                                                 max_size=2 * k)),
    st.lists(st.integers(1, 5), max_size=3),
)
@settings(max_examples=500, deadline=None)
def test_split_construction_refuses_or_lands_even_on_any_sequence(letters, cord):
    try:
        sigma = dg.even_split_from_cord(letters, cord)
    except dg.PreconditionViolatedError:
        return
    assert sigma <= set(cord)
    assert dg.delete_letters(letters, sigma).all_even()


@given(dows(min_n=2))
@settings(max_examples=60, deadline=None)
def test_split_construction_always_lands_even(word):
    cord = dg.find_framing_cord(word)
    if cord is None or len(word) == 2 * len(cord):
        return
    sigma = dg.even_split_from_cord(word.letters, cord)
    assert sigma
    assert sigma <= set(cord)
    assert dg.delete(word, sigma).all_even()


def test_minimal_split_examples():
    assert dg.minimal_even_split(dg.parse("1122")) == (
        frozenset({1}), dg.parse("11"),
    )
    assert dg.minimal_even_split(dg.parse("121332")) == (
        frozenset({1, 2}), dg.parse("1212"),
    )
    assert dg.minimal_even_split(dg.parse("1212")) is None


@given(dows())
@settings(max_examples=60, deadline=None)
def test_minimal_split_projects_to_a_cord(word):
    result = dg.minimal_even_split(word)
    if result is not None:
        sigma, projection = result
        assert dg.is_tangled_cord(projection)
        assert dg.Dow(dg.project(word, sigma)) == projection


# -------------------------------------------------------------- analyze

def test_report_on_bound_attaining_word():
    report = dg.analyze(dg.tangled_cord(5))
    assert report.n == 5
    assert report.bound == 88
    assert report.count == 88
    assert report.is_maximal
    assert report.failing_sigma is None
    assert report.minimal_even_split is None
    assert not report.is_composition
    assert report.framing_cord == (1, 2, 3, 4, 5)


def test_report_on_composition():
    report = dg.analyze(dg.parse("1122"))
    assert report.n == 2
    assert report.count == 2
    assert report.bound == 4
    assert not report.is_maximal
    assert report.failing_sigma == frozenset({1})
    assert report.is_composition
    assert report.framing_cord is None
    split = report.minimal_even_split
    assert split is not None
    assert split.sigma == frozenset({1})
    assert split.projection == dg.parse("11")
    assert dg.is_tangled_cord(split.projection)


def test_a_count_that_contradicts_the_verdict_raises(monkeypatch):
    # 1212 is maximal, so its count must be the bound, 4
    monkeypatch.setattr("dowgraph.maximality.count_words", lambda words: [3])
    with pytest.raises(dg.InternalCheckError,
                       match="count 3 disagrees with the parity verdict on 1212"):
        dg.analyze(dg.parse("1212"))


def test_report_canonicalizes_its_input():
    report = dg.analyze(dg.parse("7373"))
    assert report.word == dg.parse("1212")
    assert report.is_maximal


def test_report_count_matches_the_mask_scan_on_every_small_class(census_by_n):
    # the oracle: the masks without adjacent ones that decode to a set
    for n in range(1, 6):
        for word in census_by_n[n].classes:
            graph = dg.build_graph(word)
            scanned = sum(dg.hamiltonian_set_from_mask(graph, mask) is not None
                          for mask in nonconsecutive_masks(graph.num_real_edges))
            report = dg.analyze(word)
            assert report.count == scanned, dg.render(word)


def test_cross_check_limit_skips_counting():
    assert dg.CROSS_CHECK_LIMIT == 10
    report = dg.analyze(dg.tangled_cord(11))
    assert report.count is None
    assert report.is_maximal
    # at the limit the sets are still counted
    assert dg.analyze(dg.tangled_cord(10)).count == dg.fibonacci(21) - 1


@given(renamed_dows())
@settings(max_examples=40, deadline=None)
def test_report_is_a_class_property(pair):
    word, renamed = pair
    base = dg.analyze(word)
    for variant in (renamed, dg.reverse_word(word), dg.reverse_word(renamed)):
        other = dg.analyze(variant)
        assert other.is_maximal == base.is_maximal
        assert other.bound == base.bound
        assert other.count == base.count
        assert other.is_composition == base.is_composition


def test_report_serializes_to_plain_json():
    report = dg.analyze(dg.parse("1122"))
    blob = report.to_json_dict()
    assert json.loads(json.dumps(blob)) == blob
    assert list(blob) == [
        "word", "n", "count", "bound", "is_maximal", "failing_sigma",
        "is_composition", "framing_cord", "minimal_even_split",
    ]
    assert blob["failing_sigma"] == [1]
    assert blob["minimal_even_split"] == {
        "sigma": [1], "projection": "11", "is_tangled_cord": True,
    }
