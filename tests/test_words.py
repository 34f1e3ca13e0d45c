"""Word-level operations: parsing, canonical forms, deletion, projection,
tangled cords, and composition splitting."""

from __future__ import annotations

import doctest
import gc
import pickle
import random
import re
import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dowgraph as dg
from dowgraph import words as words_module
from dowgraph import census
from dowgraph.census import enumerate_dow_classes, iter_canonical_words

from conftest import dows, renamed_dows


def test_doctests_in_module():
    result = doctest.testmod(words_module)
    assert result.attempted > 0
    assert result.failed == 0


# ---------------------------------------------------------------- parsing

def test_parse_compact():
    assert dg.parse("121323").letters == (1, 2, 1, 3, 2, 3)


def test_parse_tokens_space_and_comma():
    assert dg.parse("1 2 12 1 2 12").letters == (1, 2, 12, 1, 2, 12)
    assert dg.parse("1,2,1,2").letters == (1, 2, 1, 2)
    # a separator at either end leaves an empty token, which is skipped
    assert dg.parse(",1,1").letters == dg.parse("1 1,").letters == (1, 1)


def test_parse_rejects_empty():
    with pytest.raises(dg.EmptyWordError):
        dg.parse("   ")


def test_parse_rejects_zero_digit():
    with pytest.raises(dg.BadTokenError):
        dg.parse("1012")


def test_parse_rejects_garbage_token():
    with pytest.raises(dg.BadTokenError):
        dg.parse("1 2 x 1 2")


@pytest.mark.parametrize("text", ["1 ² 1 ²", "1²1²", "١ ١", "١١"])
def test_parse_rejects_non_ascii_digits(text):
    with pytest.raises(dg.BadTokenError):
        dg.parse(text)


def _parse_with_regexes(text):
    """The parser as written with two regular expressions, one to test for
    the compact form and one to split tokens: the oracle for :func:`parse`."""
    stripped = text.strip()
    if not stripped:
        raise dg.EmptyWordError("empty word")
    if re.match(r"^[0-9]+$", stripped):
        if "0" in stripped:
            raise dg.BadTokenError("digit 0 is not a letter; compact form covers letters 1..9")
        return dg.Dow(int(c) for c in stripped)
    letters = []
    for token in re.split(r"[,\s]+", stripped):
        if not token:
            continue
        if not (token.isascii() and token.isdigit()) or int(token) < 1:
            raise dg.BadTokenError(f"bad letter token {token!r}")
        letters.append(int(token))
    return dg.Dow(letters)


def _parse_outcome(parser, text):
    """The letters, or the type and message of what the parser raised."""
    try:
        return parser(text).letters
    except Exception as exc:
        return type(exc), str(exc)


# every code point Python counts as whitespace, \x1c, \x85 and \u3000 among them
_SPACES = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


@given(st.text(alphabet="0123456789,\u00b2\u0663\u200b" + _SPACES, max_size=16))
@settings(max_examples=400)
def test_parse_matches_the_two_regex_parser(text):
    assert _parse_outcome(dg.parse, text) == _parse_outcome(_parse_with_regexes, text)


def test_parse_splits_at_every_separator_as_the_two_regex_parser():
    # the last whitespace code point is U+3000, so this covers every one
    assert max(_SPACES) == "\u3000"
    for c in map(chr, range(0x3001)):
        text = f"{c}1{c}2{c}{c}1,{c}2{c}"
        assert _parse_outcome(dg.parse, text) == _parse_outcome(_parse_with_regexes, text), hex(ord(c))


def test_parse_rejects_single_occurrence():
    with pytest.raises(dg.NotDoubleOccurrenceError):
        dg.parse("123")


def test_dow_constructor_validates():
    with pytest.raises(dg.NotDoubleOccurrenceError):
        dg.Dow((1, 1, 2))
    with pytest.raises(dg.EmptyWordError):
        dg.Dow(())
    with pytest.raises(dg.BadTokenError):
        dg.Dow((0, 0))


def test_dow_rejects_bool_letters():
    with pytest.raises(dg.BadTokenError):
        dg.Dow((True, True))
    with pytest.raises(dg.BadTokenError):
        dg.Dow((1, True, 1, True))


@given(renamed_dows())
def test_render_parse_roundtrip(pair):
    _, word = pair
    assert dg.parse(dg.render(word)) == word


def _joined_render(word):
    """The old rendering, one string per letter joined by the separator:
    the oracle for the compact form's one-call translation."""
    return words_module._separator(max(word.letters)).join(map(str, word.letters))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_render_matches_the_joined_form_on_every_class(n):
    for word in enumerate_dow_classes(n):
        text = dg.render(word)
        assert text == _joined_render(word)
        assert dg.parse(text) == word


@given(renamed_dows(max_n=8, max_letter=30))
@settings(max_examples=200)
def test_render_matches_the_joined_form_past_nine(pair):
    # letters up to 30 give both forms, and words whose top letter is 9 or 10;
    # test_render_parse_roundtrip checks that parse inverts them
    _, word = pair
    assert dg.render(word) == _joined_render(word)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_trie_words_are_valid_as_built(n):
    # the trie keeps its leaves' letters without validating them; Dow
    # validates here
    for letters in census._trie_classes(n):
        assert type(letters) is tuple
        assert dg.Dow(letters).letters == letters


def test_render_switches_to_tokens_past_nine():
    assert dg.render(dg.Dow((1, 10, 1, 10))) == "1 10 1 10"
    assert dg.render(dg.Dow((9, 1, 9, 1))) == "9191"
    assert str(dg.Dow((1, 10, 1, 10))) == "1 10 1 10"
    assert str(dg.Dow((9, 1, 9, 1))) == "9191"


# --------------------------------------------------------- value contract
# tests/test_records.py states the contract of Dow, Segment and SubwordSplit
# with the package's other records.

def test_unpickling_a_word_does_not_validate_it_again(monkeypatch):
    word = dg.tangled_cord(5)
    data = pickle.dumps(word)

    def refuse(self, letters):
        raise AssertionError("validated again")

    monkeypatch.setattr(dg.Dow, "__init__", refuse)
    assert pickle.loads(data).letters == word.letters


@pytest.mark.parametrize("make", [list, lambda t: (a for a in t)], ids=["list", "generator"])
def test_a_word_stores_a_tuple_whatever_sequence_it_is_given(make):
    word = dg.Dow(make((1, 2, 1, 2)))
    assert word.letters == (1, 2, 1, 2) and type(word.letters) is tuple
    assert word == dg.Dow((1, 2, 1, 2)) and hash(word) == hash(dg.Dow((1, 2, 1, 2)))


# ---------------------------------------------------------- occurrences

def test_occurrences_example():
    occ = dg.occurrences(dg.parse("121323"))
    assert occ[1] == (1, 3)
    assert occ[2] == (2, 5)
    assert occ[3] == (4, 6)
    assert occ[3][0] == 4 and occ[3][1] == 6


@given(dows())
def test_occurrences_cover_all_positions(word):
    occ = dg.occurrences(word)
    seen = sorted(p for a in word.alphabet for p in occ[a])
    assert seen == list(range(1, len(word) + 1))
    for a in word.alphabet:
        i, j = occ[a]
        assert i < j
        assert word.letters[i - 1] == a == word.letters[j - 1]


# ------------------------------------------------------- canonical forms

def test_canonicalize_examples():
    assert dg.render(dg.canonicalize(dg.parse("7373"))) == "1212"
    assert dg.render(dg.canonicalize(dg.parse("775353"))) == "112323"


def test_canonicalize_relabels_by_first_occurrence():
    word = dg.parse("4 7 4 9 7 9")
    assert dg.canonicalize(word).letters == (1, 2, 1, 3, 2, 3)


@given(dows())
def test_canonicalize_idempotent(word):
    once = dg.canonicalize(word)
    assert dg.canonicalize(once) == once
    labels = []
    for a in once.letters:
        if a not in labels:
            labels.append(a)
    assert labels == sorted(labels)


@given(renamed_dows())
def test_canonicalize_ignores_renaming(pair):
    original, renamed = pair
    assert dg.canonicalize(original) == dg.canonicalize(renamed)


@given(dows())
def test_reverse_is_involution(word):
    assert dg.reverse_word(dg.reverse_word(word)) == word


@given(renamed_dows())
def test_class_representative_constant_on_classes(pair):
    original, renamed = pair
    rep = dg.class_representative(original)
    assert rep == dg.class_representative(renamed)
    assert rep == dg.class_representative(dg.reverse_word(renamed))
    assert rep == dg.class_representative(rep)
    assert rep.letters <= dg.canonicalize(original).letters


def _old_canonicalize(word):
    """Oracle: the plain relabelling, one validated Dow per call."""
    relabel = {}
    out = []
    for a in word.letters:
        if a not in relabel:
            relabel[a] = len(relabel) + 1
        out.append(relabel[a])
    return dg.Dow(tuple(out))


def _old_class_representative(word):
    """Oracle: the smaller canonical form of the word and its reversal."""
    forward = _old_canonicalize(word)
    backward = _old_canonicalize(dg.Dow(word.letters[::-1]))
    return forward if forward.letters <= backward.letters else backward


@given(renamed_dows(max_n=8), st.booleans())
@settings(max_examples=100)
def test_canonical_forms_match_their_plain_definitions(pair, reverse):
    for word in pair:
        if reverse:
            word = dg.reverse_word(word)
        for fn, oracle in (
            (dg.canonicalize, _old_canonicalize),
            (dg.class_representative, _old_class_representative),
        ):
            got = fn(word)
            assert type(got) is dg.Dow
            assert got == oracle(word)
            # a word already in the target form comes back as itself
            assert (got is word) == (got.letters == word.letters)
            assert fn(got) is got


# ---------------------------------------------------- deletion/projection

WORKED_WORD = "1342134856757286"


def test_delete_worked_example():
    split = dg.delete(dg.parse(WORKED_WORD), {2, 5, 8})
    assert split.contents() == ((1, 3, 4), (1, 3, 4), (6, 7), (7,), (6,))
    assert [(s.start, s.end) for s in split.segments] == [
        (1, 3), (5, 7), (10, 11), (13, 13), (16, 16),
    ]
    assert split.lengths() == (3, 3, 2, 1, 1)
    assert not split.all_even()


def test_project_worked_example():
    proj = dg.project(dg.parse(WORKED_WORD), {2, 5, 8})
    assert proj == (2, 8, 5, 5, 2, 8)
    assert dg.render(dg.Dow(proj)) == "285528"


def test_empty_sigma_is_refused():
    word = dg.parse("1212")
    with pytest.raises(dg.SigmaEmptyError):
        dg.delete(word, set())
    with pytest.raises(dg.SigmaEmptyError):
        dg.project(word, frozenset())


@given(dows(), st.data())
def test_delete_and_project_account_for_every_position(word, data):
    sigma = data.draw(
        st.sets(st.sampled_from(sorted(word.alphabet)), min_size=1),
        label="sigma",
    )
    split = dg.delete(word, sigma)
    proj = dg.project(word, sigma)
    assert len(proj) == 2 * len(sigma)
    assert sum(split.lengths()) == len(word) - 2 * len(sigma)
    for seg in split.segments:
        assert seg.letters
        assert seg.end - seg.start + 1 == len(seg.letters)
        assert not set(seg.letters) & set(sigma)
    # segments plus deleted occurrences reassemble the original word
    rebuilt: dict[int, int] = {}
    for seg in split.segments:
        for offset, a in enumerate(seg.letters):
            rebuilt[seg.start + offset] = a
    occ = dg.occurrences(word)
    for a in sigma:
        for p in occ[a]:
            rebuilt[p] = a
    assert tuple(rebuilt[p] for p in range(1, len(word) + 1)) == word.letters


def _runs_oracle(letters, sigma):
    """The maximal runs of surviving positions, as (start, end, letters)."""
    runs: list[list[int]] = []
    for p, a in enumerate(letters, start=1):
        if a in sigma:
            continue
        if runs and runs[-1][-1] == p - 1:
            runs[-1].append(p)
        else:
            runs.append([p])
    return [(run[0], run[-1], tuple(letters[p - 1] for p in run)) for run in runs]


@pytest.mark.parametrize("sigma", [
    {1},        # killed at the start
    {6},        # killed at the end
    {1, 6},     # at both ends
    {1, 2, 3, 4, 5, 6},  # everywhere
    {9},        # nowhere
    {2, 5},     # inside only
])
def test_delete_letters_matches_positional_oracle(sigma):
    letters = (1, 2, 3, 1, 4, 2, 5, 3, 5, 4, 6, 6)
    split = dg.delete_letters(letters, sigma)
    assert [(s.start, s.end, s.letters) for s in split.segments] == _runs_oracle(letters, sigma)


@given(st.lists(st.integers(1, 4), max_size=12), st.sets(st.integers(1, 4), min_size=1))
def test_delete_letters_matches_positional_oracle_on_any_sequence(letters, sigma):
    split = dg.delete_letters(letters, sigma)
    assert [(s.start, s.end, s.letters) for s in split.segments] == _runs_oracle(letters, sigma)


def test_project_whole_alphabet_is_identity():
    word = dg.parse("121323")
    assert dg.project(word, word.alphabet) == word.letters


# -------------------------------------------------------- tangled cords

def test_tangled_cord_small_values():
    expected = ["11", "1212", "121323", "12132434", "1213243545"]
    assert [dg.render(dg.tangled_cord(k)) for k in range(1, 6)] == expected


def test_tangled_cord_rejects_nonpositive():
    with pytest.raises(dg.InputError):
        dg.tangled_cord(0)


@pytest.mark.parametrize("n", range(2, 11))
def test_tangled_cord_inductive_step(n):
    # the cord with n letters is the previous one with its final letter's
    # second occurrence expanded from (n-1) to n,(n-1),n
    prev = list(dg.tangled_cord(n - 1).letters)
    last = max(idx for idx, a in enumerate(prev) if a == n - 1)
    grown = prev[:last] + [n, n - 1, n] + prev[last + 1 :]
    assert tuple(grown) == dg.tangled_cord(n).letters


@pytest.mark.parametrize("n", range(1, 13))
def test_tangled_cord_reads_same_backwards(n):
    cord = dg.tangled_cord(n)
    assert dg.canonicalize(dg.reverse_word(cord)) == cord
    assert dg.class_representative(cord) == cord


@pytest.mark.parametrize("n", range(2, 9))
def test_tangled_cord_occurrences_interlock(n):
    occ = dg.occurrences(dg.tangled_cord(n))
    seconds = [occ[k][1] for k in range(1, n + 1)]
    assert seconds == sorted(seconds)
    for k in range(1, n):
        below = occ[k - 1][1] if k >= 2 else 1
        assert below < occ[k + 1][0] < occ[k][1]


def _tangled_by_canonical_form(word):
    # the rule as first defined: the canonical form is the cord over 1..n
    return dg.canonicalize(word).letters == dg.cord_pattern(range(1, word.n + 1))


def test_is_tangled_cord_up_to_renaming_and_reversal():
    assert dg.is_tangled_cord(dg.parse("7373"))
    assert dg.is_tangled_cord(dg.reverse_word(dg.tangled_cord(5)))
    assert not dg.is_tangled_cord(dg.parse("1122"))
    assert not dg.is_tangled_cord(dg.parse("123123"))
    for n in range(1, 7):
        for word in iter_canonical_words(n):
            assert dg.is_tangled_cord(word) == _tangled_by_canonical_form(word)
    for k in range(1, 61):
        labels = random.Random(k).sample(range(1, 10 * k + 1), k)
        word = dg.Dow([labels[a - 1] for a in reversed(dg.tangled_cord(k).letters)])
        assert dg.is_tangled_cord(word) and _tangled_by_canonical_form(word)


def test_is_tangled_cord_holds_nothing_after_the_call():
    # 200,000 letter pairs; a cord kept past the call holds about 15 MiB
    tracemalloc.start()
    try:
        assert dg.is_tangled_cord(dg.tangled_cord(200_000))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


# ---------------------------------------------------------- composition

def test_split_composition_examples():
    left, right = dg.split_composition(dg.parse("112323"))
    assert (dg.render(left), dg.render(right)) == ("11", "2323")
    assert dg.split_composition(dg.parse("1212")) is None
    left, right = dg.split_composition(dg.parse("12123434"))
    assert (dg.render(left), dg.render(right)) == ("1212", "3434")


def test_split_composition_picks_shortest_prefix():
    left, right = dg.split_composition(dg.parse("112233"))
    assert (dg.render(left), dg.render(right)) == ("11", "2233")


def _shortest_complete_prefix(letters):
    """The length of the shortest proper prefix whose length is twice its
    alphabet: the positional oracle for the composition cut."""
    return next((k for k in range(1, len(letters)) if k == 2 * len(set(letters[:k]))), None)


def test_composition_cut_matches_the_positional_oracle():
    for n in range(1, 7):
        for word in iter_canonical_words(n):
            cut = words_module._composition_cut(dg.occurrences(word))
            assert cut == _shortest_complete_prefix(word.letters), word


@pytest.mark.parametrize("n", range(1, 9))
def test_tangled_cords_never_split(n):
    assert dg.split_composition(dg.tangled_cord(n)) is None


@given(dows(max_n=3), dows(max_n=3))
@settings(max_examples=50)
def test_concatenations_always_split(left, right):
    shift = max(left.alphabet)
    shifted = tuple(a + shift for a in right.letters)
    word = dg.Dow(left.letters + shifted)
    parts = dg.split_composition(word)
    assert parts is not None
    a, b = parts
    assert a.letters + b.letters == word.letters
    assert len(a.letters) <= len(left.letters)
    assert not a.alphabet & b.alphabet
