"""Deciding whether a word attains the Hamiltonian-set bound.

A word with n letters can have at most F_(2n+1) - 1 Hamiltonian sets, and
the words reaching that bound are exactly the ones for which no proper,
non-empty letter subset leaves only even-length pieces behind when deleted.
This module implements that parity test, its graph-side twin (an edge set
whose endpoints all pair up), and the constructive machinery around
non-maximal words: greedy extraction of a framing cord, the recursive
even-split construction that the cord supports, and the minimal even split,
whose projection is always a tangled cord.

The parity test rests on one fact.  Deleted positions p_1 < p_2 < ...
(1-based) leave only even pieces exactly when p_j = j (mod 2) for every j
and their count is even.  :func:`even_split_witness` deepens by subset size
and, within a size, picks letters in ascending label order.  Once
``letters[:i]`` are decided, every position before the first occurrence of
any undecided letter is fixed, so the deleted positions there are checked
at once and a branch dies on the first one out of parity.  The search only
ever visits deleted positions, and it assumes nothing about the shape of
the answer, so the tangled-cord check on the minimal split stays a real
check.

Everything here re-verifies its own output and raises
:class:`~dowgraph.errors.InternalCheckError` on any discrepancy, so a green
run really is a machine check of the underlying identities.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import InternalCheckError, PreconditionViolatedError
from .graphs import AssemblyGraph, build_graph
from .hamiltonian import count_hamiltonian_sets, fibonacci, nonconsecutive_masks
from .words import (
    Dow,
    _composition_cut,
    _is_tangled,
    canonicalize,
    delete_letters,
    occurrences,
    project,
    render,
)
# bench/spans.py wraps both here by name; they stay importable
from .words import is_tangled_cord, split_composition  # noqa: F401

__all__ = [
    "DEFAULT_CROSS_CHECK_LIMIT",
    "EvenSplit",
    "MaximalityReport",
    "even_split_witness",
    "paired_endpoints_witness",
    "cord_pattern",
    "is_framing_cord",
    "find_framing_cord",
    "even_split_from_cord",
    "minimal_even_split",
    "analyze",
]

DEFAULT_CROSS_CHECK_LIMIT = 10


def _settle(
    pending: Sequence[int], limit: int, want: int
) -> tuple[int, Sequence[int]] | None:
    # the sorted deleted positions in ``pending`` below ``limit`` have become
    # fixed; each must have parity ``want``, which flips after every one.
    # Returns the parity wanted next and the positions still pending, or None
    # when a fixed position is out of parity.
    k = 0
    for p in pending:
        if p >= limit:
            break
        if p & 1 != want:
            return None
        want ^= 1
        k += 1
    return want, pending[k:]


def _first_split_of_size(
    spots: Sequence[tuple[int, int]], bound: Sequence[int], size: int
) -> list[int] | None:
    # depth-first over the size-subsets of letter indices in lexicographic
    # order.  A frame is [next index to try, letters still to pick, parity
    # wanted next, deleted positions not yet fixed]; a frame below the top
    # picked the index one before its own next index.
    n = len(spots)
    stack = [[0, size, 1, ()]]
    while stack:
        frame = stack[-1]
        i, need, want, pending = frame
        if i > n - need:
            stack.pop()
            continue
        # leaving letters out up to i fixes every position below bound[i]
        if pending and pending[0] < bound[i]:
            settled = _settle(pending, bound[i], want)
            if settled is None:
                # leaving out more letters fixes the same positions
                stack.pop()
                continue
            want, pending = settled
            frame[2], frame[3] = want, pending
        frame[0] = i + 1
        merged = sorted((*pending, *spots[i])) if pending else spots[i]
        # with the last pick made, every other letter is left out
        settled = _settle(merged, bound[i + 1] if need > 1 else bound[n], want)
        if settled is None:
            continue
        if need == 1:
            return [f[0] - 1 for f in stack]
        stack.append([i + 1, need - 1, *settled])
    return None


def even_split_witness(word: Dow) -> frozenset[int] | None:
    """Smallest letter subset whose deletion leaves only even pieces.

    Among subsets of the smallest size that works, returns the first in
    ``combinations(sorted(letters), size)`` order, so the witness is
    deterministic.  None means every deletion leaves some odd piece, which
    is exactly the bound-attaining case.  The search is the pruned one the
    module docstring describes.

    >>> even_split_witness(Dow((1, 1, 2, 2)))
    frozenset({1})
    >>> even_split_witness(Dow((1, 2, 1, 2))) is None
    True
    """
    return _even_split(occurrences(word).pairs)


def _even_split(pairs: dict[int, tuple[int, int]]) -> frozenset[int] | None:
    # even_split_witness on a word's occurrence index
    letters = sorted(pairs)
    spots = [pairs[a] for a in letters]
    n = len(letters)
    # bound[i]: every position before it holds one of letters[:i]
    bound = [2 * n + 1] * (n + 1)
    low = bound[n]
    for i in range(n - 1, -1, -1):
        if spots[i][0] < low:
            low = spots[i][0]
        bound[i] = low
    for size in range(1, n):
        picked = _first_split_of_size(spots, bound, size)
        if picked is not None:
            return frozenset(letters[i] for i in picked)
    return None


def paired_endpoints_witness(graph: AssemblyGraph) -> int | None:
    """Graph-side twin of :func:`even_split_witness`; a test oracle.

    Looks for up to n-1 pairwise non-consecutive transversal edges whose
    endpoint list mentions no vertex exactly once; such a selection can
    never be a union of vertex-disjoint polygonal paths.  Returns the first
    witness in ascending mask order, or None.  It scans all F(2n+1) masks
    without adjacent ones, so it serves only to cross-check the parity
    verdict on small words.
    """
    n = graph.n
    for mask in nonconsecutive_masks(graph.num_real_edges):
        k = mask.bit_count()
        if not 1 <= k <= n - 1:
            continue
        counts: dict[int, int] = {}
        m = mask
        while m:
            low = m & -m
            m ^= low
            u, v = graph.edge_ends(low.bit_length())
            counts[u] = counts.get(u, 0) + 1
            counts[v] = counts.get(v, 0) + 1
        if all(c != 1 for c in counts.values()):
            return mask
    return None


def cord_pattern(cord: Sequence[int]) -> tuple[int, ...]:
    """The projection a framing cord t_1..t_s must produce:
    t_1 t_2 t_1 t_3 t_2 ... t_s t_(s-1) t_s."""
    s = len(cord)
    if s == 0:
        raise PreconditionViolatedError("a cord needs at least one letter")
    if s == 1:
        return (cord[0], cord[0])
    out = [cord[0], cord[1], cord[0]]
    for k in range(2, s):
        out.extend((cord[k], cord[k - 1]))
    out.append(cord[-1])
    return tuple(out)


def is_framing_cord(word: Dow, cord: Sequence[int]) -> bool:
    """Does the ordered letter sequence frame the word?

    Requires the first cord letter to open the word, the last to close it,
    and the projection onto the cord letters to interlock in the tangled
    pattern.
    """
    cord = tuple(cord)
    if not cord or len(set(cord)) != len(cord):
        return False
    if not set(cord) <= word.alphabet:
        return False
    if word.letters[0] != cord[0] or word.letters[-1] != cord[-1]:
        return False
    return project(word, set(cord)).content == cord_pattern(cord)


def find_framing_cord(word: Dow) -> tuple[int, ...] | None:
    """Greedily extract a framing cord, or None when the word splits.

    Starts from the opening letter and repeatedly picks, among letters that
    straddle the current right end, the one reaching furthest.  The greedy
    run gets stuck before the end of the word exactly when some proper
    prefix is a complete word of its own.
    """
    return _framing_cord(word, occurrences(word).pairs)


def _framing_cord(word: Dow, occ: dict[int, tuple[int, int]]) -> tuple[int, ...] | None:
    # find_framing_cord on a word and its occurrence index
    total = len(word.letters)
    first = word.letters[0]
    cord = [first]
    end = occ[first][1]
    while end < total:
        best = None
        for a, (o1, o2) in occ.items():
            if o1 < end < o2 and (best is None or o2 > occ[best][1]):
                best = a
        if best is None:
            return None
        cord.append(best)
        end = occ[best][1]
    result = tuple(cord)
    if not is_framing_cord(word, result):
        raise InternalCheckError(
            f"greedy cord {result} fails the framing check on {render(word)}"
        )
    return result


def _cord_occurrences(letters: Sequence[int], cord: Sequence[int]) -> dict[int, list[int]]:
    wanted = set(cord)
    occ: dict[int, list[int]] = {a: [] for a in cord}
    for pos, a in enumerate(letters, start=1):
        if a in wanted:
            occ[a].append(pos)
    return occ


def _even_split_rec(letters: tuple[int, ...], cord: tuple[int, ...]) -> frozenset[int]:
    s = len(cord)
    if s == 1:
        return frozenset(cord)
    occ = _cord_occurrences(letters, cord)
    # first try to cut the word at an even-positioned second occurrence of a
    # non-final cord letter; the prefix inherits a shorter framing cord
    for i in range(s - 1):
        o2 = occ[cord[i]][1]
        if o2 % 2 == 0:
            return _even_split_rec(letters[:o2], cord[: i + 1])
    # otherwise an odd-positioned first occurrence flips into the case above
    # after reversal, which keeps both the letters and the split parities
    for j in range(1, s):
        if occ[cord[j]][0] % 2 == 1:
            return _even_split_rec(letters[::-1], cord[::-1])
    # no cut available: the whole cord works
    return frozenset(cord)


def even_split_from_cord(letters: Sequence[int], cord: Sequence[int]) -> frozenset[int]:
    """Build a letter set with an all-even split from a framing cord.

    ``letters`` may be any even-length sequence in which every symbol shows
    up at most twice; recursion on prefixes needs that generality.  The word
    must be strictly longer than twice the cord, otherwise deleting anything
    cannot leave non-trivial even pieces and the call is refused.
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
    occ = _cord_occurrences(letters, cord)
    if any(len(ps) != 2 for ps in occ.values()):
        raise PreconditionViolatedError("every cord letter must occur exactly twice")
    if letters[0] != cord[0] or letters[-1] != cord[-1]:
        raise PreconditionViolatedError("the cord must open and close the word")
    flat = tuple(a for a in letters if a in set(cord))
    if flat != cord_pattern(cord):
        raise PreconditionViolatedError("the cord letters do not interlock as a cord")
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
    sigma = even_split_witness(word)
    if sigma is None:
        return None
    return sigma, Dow(_tangled_projection(word, sigma))


def _tangled_projection(word: Dow, sigma: frozenset[int]) -> tuple[int, ...]:
    # the projection onto sigma, checked to be a tangled cord
    content = tuple([a for a in word.letters if a in sigma])
    if not _is_tangled(content):
        raise InternalCheckError(
            f"minimal split {sorted(sigma)} of {render(word)} projects to "
            f"{render(Dow(content))}, which is not a tangled cord"
        )
    return content


def _verdicts(
    word: Dow,
) -> tuple[tuple[frozenset[int], tuple[int, ...]] | None, bool, tuple[int, ...] | None]:
    """The minimal even split with its projection's letters, the
    composition flag and the framing cord.

    The core that :func:`analyze` and the census share.  The word is taken
    as it is, so the letters returned are its own: :func:`analyze`
    canonicalizes first, and the census's classes are canonical already.
    The checks all fire here: the split projects to a tangled cord, the
    cord frames the word, and a cord exists exactly when the word is no
    composition.
    """
    pairs = occurrences(word).pairs
    sigma = _even_split(pairs)
    split = None if sigma is None else (sigma, _tangled_projection(word, sigma))
    is_composition = _composition_cut(word.letters) is not None
    cord = _framing_cord(word, pairs)
    if (cord is None) != is_composition:
        raise InternalCheckError(
            f"cord extraction and composition split disagree on {render(word)}"
        )
    return split, is_composition, cord


@dataclass(frozen=True)
class EvenSplit:
    """A witness subset, its projection, and the verified cord flag."""

    sigma: frozenset[int]
    projection: Dow
    is_tangled_cord: bool

    def to_json_dict(self) -> dict:
        return {
            "sigma": sorted(self.sigma),
            "projection": render(self.projection),
            "is_tangled_cord": self.is_tangled_cord,
        }


@dataclass(frozen=True)
class MaximalityReport:
    """Everything this package can say about one word.

    ``word`` is the canonical form of the analyzed word, and all letters
    mentioned elsewhere in the report refer to that relabeling.  ``count``
    is None when n exceeded the cross-check limit and counting was
    skipped.
    """

    word: Dow
    n: int
    count: int | None
    bound: int
    is_maximal: bool
    failing_sigma: frozenset[int] | None
    is_composition: bool
    framing_cord: tuple[int, ...] | None
    minimal_even_split: EvenSplit | None

    @property
    def consistent(self) -> bool:
        """Does the count agree with the parity verdict?"""
        if self.count is None:
            return True
        return (self.count == self.bound) == self.is_maximal

    def to_json_dict(self) -> dict:
        return {
            "word": render(self.word),
            "n": self.n,
            "count": self.count,
            "bound": self.bound,
            "is_maximal": self.is_maximal,
            "failing_sigma": sorted(self.failing_sigma)
            if self.failing_sigma is not None
            else None,
            "is_composition": self.is_composition,
            "framing_cord": list(self.framing_cord)
            if self.framing_cord is not None
            else None,
            "minimal_even_split": self.minimal_even_split.to_json_dict()
            if self.minimal_even_split is not None
            else None,
        }


def analyze(word: Dow, cross_check_limit: int = DEFAULT_CROSS_CHECK_LIMIT) -> MaximalityReport:
    """Full maximality report for one word.

    The verdict comes from the parity test.  For words within the
    cross-check limit the Hamiltonian sets are also counted outright, and
    the report's ``consistent`` property compares the two; callers that want
    a hard failure on disagreement should check it.
    """
    canonical = canonicalize(word)
    n = canonical.n
    minimal, is_composition, cord = _verdicts(canonical)
    split = None
    if minimal is not None:
        sigma, projection = minimal
        split = EvenSplit(sigma, Dow(projection), is_tangled_cord=True)
    count = None
    if n <= cross_check_limit:
        count = count_hamiltonian_sets(build_graph(canonical))
    return MaximalityReport(
        word=canonical,
        n=n,
        count=count,
        bound=fibonacci(2 * n + 1) - 1,
        is_maximal=split is None,
        failing_sigma=None if split is None else split.sigma,
        is_composition=is_composition,
        framing_cord=cord,
        minimal_even_split=split,
    )
