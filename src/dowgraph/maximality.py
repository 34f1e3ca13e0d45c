"""Deciding whether a word attains the Hamiltonian-set bound.

A word with n letters can have at most F_(2n+1) - 1 Hamiltonian sets, and
the words reaching that bound are exactly the ones for which no proper,
non-empty letter subset leaves only even-length pieces behind when deleted.
This module implements that parity test and the constructive machinery
around non-maximal words: greedy extraction of a framing cord, the recursive
even-split construction that the cord supports, and the minimal even split,
whose projection is always a tangled cord.  Its graph-side twin, the
endpoint-pairing test :func:`~dowgraph.oracles.paired_endpoints_witness`,
is a test oracle and lives with the others in :mod:`dowgraph.oracles`.
The count that :func:`analyze` checks the verdict against comes from the
counting programme, which reads the word's letters, so this module loads
neither the graph layer nor the enumeration.

The parity test rests on one fact.  Deleted positions p_1 < p_2 < ...
(1-based) leave only even pieces exactly when p_j = j (mod 2) for every j
and their count is even.  A witness with no smaller witness inside it
projects onto a tangled cord, so a smallest witness is a chain a_1, ...,
a_m of letters, each interlocking the next, whose positions read
o_1 o_2 c_1 o_3 c_2 ... o_m c_(m-1) c_m, where a_k opens at o_k and closes
at c_k.  The parity rule asks the chain for o_1 odd, every later o_k even,
every c_k odd but the last, and c_m even.  For m = 1 that reads straight
off the occurrence map: a letter that opens at an odd position and closes
at an even one, the smallest such label being the answer (for n = 1 the
letter is the whole word, which is no proper subset).  Longer chains come
from a breadth-first search with one layer per chain length.  A state is
the chain's last letter b with the position where the letter before it
closes (0 for none); while b closes at an odd position, the state goes on
to each letter that opens at an even position after that close and after
b opens, but before b closes, and that closes after b does.  The first
layer with a state whose letter closes at an even position holds the
smallest witnesses, and the search gives up before size n, since a
witness is a proper subset.

Each state keeps the least chain by sorted labels among those of its
length that reach it, and that is right for every labelling.  What a
state can still take depends on the state alone, and every letter it can
take opens after the letters of its chain before b have closed and is not
b, so a completion S is disjoint from any two chains A and B of the state.
For A and B of equal size, sorted(A | S) < sorted(B | S) exactly when
min(A ^ B) lies in A, whatever S is.  A state met at an earlier layer is
not taken again, since a chain through it at a later layer is not a
shortest one.  So each of the O(n^2) states is expanded once, over O(n)
positions: the search takes O(n^3) steps on every word, each copying or
comparing one chain, and holds O(n^2) states.

Everything here re-verifies its own output and raises
:class:`~dowgraph.errors.InternalCheckError` on any discrepancy, so a green
run really is a machine check of the underlying identities.
"""

from __future__ import annotations

import importlib
from collections.abc import Sequence

from .counting import count_words, fibonacci
from .errors import InternalCheckError, PreconditionViolatedError
from .words import (
    Dow,
    _Frozen,
    _composition_cut,
    _is_tangled,
    _occurrences,
    _render,
    canonicalize,
    cord_pattern,
    delete_letters,
    occurrences,
    render,
)
# bench/spans.py wraps these here by name; they stay importable
from .words import is_tangled_cord, project, split_composition  # noqa: F401

__all__ = [
    "CROSS_CHECK_LIMIT",
    "EvenSplit",
    "MaximalityReport",
    "even_split_witness",
    "is_framing_cord",
    "find_framing_cord",
    "even_split_from_cord",
    "minimal_even_split",
    "analyze",
]

CROSS_CHECK_LIMIT = 10

# bench/spans.py wraps these two here by name, and nothing here calls them;
# each is resolved from its layer on every access and never bound here, so
# analyze loads neither layer (as cli._LAZY)
_SPANNED = {"build_graph": "graphs", "count_hamiltonian_sets": "hamiltonian"}


def __getattr__(name: str):
    if name not in _SPANNED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SPANNED[name]}", __package__), name)


def even_split_witness(word: Dow) -> frozenset[int] | None:
    """Smallest letter subset whose deletion leaves only even pieces.

    Among subsets of the smallest size that works, returns the least by
    sorted labels, the first in ``combinations(sorted(letters), size)``
    order, so the witness is deterministic.  None means every deletion
    leaves some odd piece, which is exactly the bound-attaining case.  The
    search is the shortest parity chain the module docstring describes,
    O(n^3) steps on every word.

    >>> even_split_witness(Dow((1, 1, 2, 2)))
    frozenset({1})
    >>> even_split_witness(Dow((1, 2, 1, 2))) is None
    True
    """
    return _even_split(occurrences(word))


def _even_split(pairs: dict[int, tuple[int, int]]) -> frozenset[int] | None:
    # even_split_witness on the occurrences of a word
    letters = sorted(pairs)
    n = len(letters)
    # chains of one letter, read off the map.  With n = 1 that letter is
    # the whole word, and a witness is a proper subset
    if n > 1:
        for a in letters:
            first, second = pairs[a]
            if first & 1 and not second & 1:
                return frozenset((a,))
    # opener[p]: the letter that opens at position p, or 0
    opener = [0] * (2 * n)
    for a, (first, _) in pairs.items():
        opener[first] = a
    # a state (before, b): the chain ends in b, and the letter before b
    # closes at before; it maps to its least chain, in opening order
    layer = {(0, a): (a,) for a in letters if pairs[a][0] & 1}
    seen = set(layer)
    # one layer per chain length; a witness is a proper subset
    for _ in range(2, n):
        grown = {}
        for (before, b), chain in layer.items():
            first, close = pairs[b]
            # the letters opening at even positions past before and b's
            # opening, until b closes
            for c in opener[max(first, before) + 2 & -2:close:2]:
                if c and pairs[c][1] > close and (close, c) not in seen:
                    longer = chain + (c,)
                    known = grown.get((close, c))
                    if known is None or sorted(longer) < sorted(known):
                        grown[close, c] = longer
        ends = [chain for (_, c), chain in grown.items() if not pairs[c][1] & 1]
        if ends:
            return frozenset(min(ends, key=sorted))
        seen.update(grown)
        layer = grown
    return None


def is_framing_cord(word: Dow, cord: Sequence[int]) -> bool:
    """Does the ordered letter sequence frame the word?

    Requires a non-empty cord of distinct letters whose first letter opens
    the word and whose last closes it, and whose letters project onto the
    tangled pattern, interlocking each with the one before it.
    """
    return _frames(word.letters, tuple(cord))


def _frames(letters: Sequence[int], cord: tuple[int, ...]) -> bool:
    # is_framing_cord on any sequence; distinctness must be asked for, since
    # in a sequence that is not a word a repeated cord letter can still
    # project onto the pattern, as (1, 2, 1) does on 12133121
    keep = set(cord)
    if not cord or len(keep) != len(cord) or (letters[0], letters[-1]) != (cord[0], cord[-1]):
        return False
    return tuple([a for a in letters if a in keep]) == cord_pattern(cord)


def find_framing_cord(word: Dow) -> tuple[int, ...] | None:
    """Greedily extract a framing cord, or None when the word splits.

    Starts from the opening letter and repeatedly picks, among letters that
    straddle the current right end, the one reaching furthest.  The greedy
    run gets stuck before the end of the word exactly when some proper
    prefix is a complete word of its own.

    One left-to-right sweep finds it in O(n): the letter opened so far that
    closes last is, at the current right end, the straddling letter that
    reaches furthest, and the run is stuck when it closes right there.
    """
    return _framing_cord(word.letters, occurrences(word))


def _framing_cord(
    letters: Sequence[int], occ: dict[int, tuple[int, int]],
) -> tuple[int, ...] | None:
    # find_framing_cord on a word's letters and their occurrences
    # best: the letter opened so far that closes last, at position reach
    best = letters[0]
    cord = [best]
    end = reach = occ[best][1]
    # the last position closes the word, and the cord with it
    for pos, a in enumerate(letters[:-1], start=1):
        if occ[a][1] > reach:
            best, reach = a, occ[a][1]
        if pos == end:
            if reach == end:
                return None
            cord.append(best)
            end = reach
    result = tuple(cord)
    if not _frames(letters, result):
        raise InternalCheckError(
            f"greedy cord {result} fails the framing check on {_render(letters)}"
        )
    return result


def _even_split_rec(letters: tuple[int, ...], cord: tuple[int, ...]) -> frozenset[int]:
    # the letters are framed by the cord, so each cord letter occurs twice
    occ = _occurrences(letters)
    # first try to cut the word at an even-positioned second occurrence of a
    # non-final cord letter; the prefix inherits a shorter framing cord
    for i in range(len(cord) - 1):
        o2 = occ[cord[i]][1]
        if o2 % 2 == 0:
            return _even_split_rec(letters[:o2], cord[: i + 1])
    # otherwise an odd-positioned first occurrence flips into the case above
    # after reversal, which keeps both the letters and the split parities
    for j in range(1, len(cord)):
        if occ[cord[j]][0] % 2 == 1:
            return _even_split_rec(letters[::-1], cord[::-1])
    # no cut available (always so for a one-letter cord): the whole cord works
    return frozenset(cord)


def even_split_from_cord(letters: Sequence[int], cord: Sequence[int]) -> frozenset[int]:
    """Build a letter set with an all-even split from a framing cord.

    ``letters`` may be any even-length sequence, not only a word; recursion
    on prefixes needs that generality.  It must be strictly longer than
    twice the cord, otherwise deleting anything cannot leave non-trivial
    even pieces.  Past those length checks there is one structural refusal:
    the cord must frame the letters, by the rule :func:`is_framing_cord`
    states.  Every refusal is a
    :class:`~dowgraph.errors.PreconditionViolatedError`.
    """
    letters = tuple(letters)
    cord = tuple(cord)
    s = len(cord)
    if len(letters) % 2:
        raise PreconditionViolatedError("the word must have even length")
    if len(letters) == 2 * s:
        raise PreconditionViolatedError(
            "the word is nothing but its cord; no even split exists"
        )
    if len(letters) < 2 * s:
        raise PreconditionViolatedError("the cord does not fit the word")
    if not _frames(letters, cord):
        raise PreconditionViolatedError("the cord does not frame the word")
    sigma = _even_split_rec(letters, cord)
    if not delete_letters(letters, sigma).all_even():
        raise InternalCheckError(
            f"constructed split {sorted(sigma)} leaves an odd piece"
        )
    return sigma


def minimal_even_split(word: Dow) -> tuple[frozenset[int], Dow] | None:
    """The smallest all-even deletion witness and its projection.

    None exactly when the word attains the bound.  When present, the
    projection is checked to be a tangled cord; that identity is the point
    of the whole construction, so its failure is an internal error.
    """
    split = _verdicts(word.letters)[0]
    return None if split is None else (split[0], Dow(split[1]))


def _verdicts(
    letters: tuple[int, ...],
) -> tuple[tuple[frozenset[int], tuple[int, ...]] | None, bool, tuple[int, ...] | None]:
    """The minimal even split with its projection's letters, the
    composition flag and the framing cord of a word, given by its letters.

    The core that :func:`analyze` and the census share.  It reads the
    letters and builds no :class:`Dow`: :func:`analyze` passes a
    canonicalized word's, and the census its trie's tuples, canonical
    already.  The letters are taken as they are, so the letters returned
    are theirs.  The checks all fire here: the split projects to a tangled
    cord, the cord frames the word, and a cord exists exactly when the word
    is no composition.
    """
    pairs = _occurrences(letters)
    sigma = _even_split(pairs)
    split = None
    if sigma is not None:
        split = sigma, tuple([a for a in letters if a in sigma])
        if not _is_tangled(split[1]):
            raise InternalCheckError(
                f"minimal split {sorted(sigma)} of {_render(letters)} projects to "
                f"{_render(split[1])}, which is not a tangled cord"
            )
    is_composition = _composition_cut(pairs) is not None
    cord = _framing_cord(letters, pairs)
    if (cord is None) != is_composition:
        raise InternalCheckError(
            f"cord extraction and composition split disagree on {_render(letters)}"
        )
    return split, is_composition, cord


class EvenSplit(_Frozen):
    """A witness subset and its projection, which the verdict core has
    already checked to be a tangled cord; the JSON form says so."""

    __slots__ = ("sigma", "projection")
    sigma: frozenset[int]
    projection: Dow

    def to_json_dict(self) -> dict:
        return {
            "sigma": sorted(self.sigma),
            "projection": render(self.projection),
            "is_tangled_cord": True,
        }


class MaximalityReport(_Frozen):
    """Everything this package can say about one word.

    ``word`` is the canonical form of the analyzed word, and all letters
    mentioned elsewhere in the report refer to that relabeling.  ``count``
    is None when n exceeded the cross-check limit and counting was
    skipped.  The verdict is the minimal even split: the word is maximal
    exactly when it has none.  A count that contradicts the verdict never
    makes a report: :func:`analyze` raises instead.
    """

    __slots__ = ("word", "count", "is_composition", "framing_cord", "minimal_even_split")
    word: Dow
    count: int | None
    is_composition: bool
    framing_cord: tuple[int, ...] | None
    minimal_even_split: EvenSplit | None

    @property
    def n(self) -> int:
        return self.word.n

    @property
    def bound(self) -> int:
        """F_(2n+1) - 1, the most Hamiltonian sets any word with n letters has."""
        return fibonacci(2 * self.n + 1) - 1

    @property
    def is_maximal(self) -> bool:
        return self.minimal_even_split is None

    @property
    def failing_sigma(self) -> frozenset[int] | None:
        split = self.minimal_even_split
        return None if split is None else split.sigma

    def to_json_dict(self) -> dict:
        # None stays None: a split and a cord are never empty, so never false
        split, cord = self.minimal_even_split, self.framing_cord
        return {
            "word": render(self.word),
            "n": self.n,
            "count": self.count,
            "bound": self.bound,
            "is_maximal": self.is_maximal,
            "failing_sigma": split and sorted(split.sigma),
            "is_composition": self.is_composition,
            "framing_cord": cord and list(cord),
            "minimal_even_split": split and split.to_json_dict(),
        }


def analyze(word: Dow) -> MaximalityReport:
    """Full maximality report for one word.

    The verdict comes from the parity test.  For words with at most
    :data:`CROSS_CHECK_LIMIT` letters the Hamiltonian sets are also counted,
    by :func:`~dowgraph.counting.count_words` on the canonical word.  A
    count that disagrees with the verdict, reaching the bound exactly when
    the word is not maximal, raises :class:`~dowgraph.errors.InternalCheckError`.
    """
    canonical = canonicalize(word)
    minimal, is_composition, cord = _verdicts(canonical.letters)
    split = None if minimal is None else EvenSplit(minimal[0], Dow(minimal[1]))
    count = count_words([canonical])[0] if canonical.n <= CROSS_CHECK_LIMIT else None
    report = MaximalityReport(canonical, count, is_composition, cord, split)
    if count is not None and (count == report.bound) != report.is_maximal:
        raise InternalCheckError(
            f"count {count} disagrees with the parity verdict on {render(canonical)}"
        )
    return report
