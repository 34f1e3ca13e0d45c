"""Double occurrence words and the letter-level operations on them.

A double occurrence word (DOW) is a finite word in which every letter
appears exactly twice.  Letters are positive integers.  Two text forms are
accepted: the compact form ``"121323"`` where each character is one digit
(only usable while the alphabet stays within 1..9), and the token form
``"1 2 1 3 2 3"`` or ``"1,2,1,3,2,3"`` for larger alphabets.

Positions are 1-based everywhere in this package, so the word ``1212`` has
letter 1 at positions 1 and 3.  Two words are considered equivalent when one
can be turned into the other by renaming letters and possibly reversing.
:func:`canonicalize` picks the renaming that labels letters in order of
first occurrence, and :func:`class_representative` additionally resolves the
reversal choice, so equivalence testing reduces to equality of
representatives.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import (
    BadTokenError,
    EmptyWordError,
    InputError,
    NotDoubleOccurrenceError,
    SigmaEmptyError,
)

__all__ = [
    "Dow",
    "OccurrenceIndex",
    "Segment",
    "SubwordSplit",
    "Projection",
    "parse",
    "render",
    "occurrences",
    "canonicalize",
    "reverse_word",
    "class_representative",
    "delete",
    "delete_letters",
    "project",
    "tangled_cord",
    "is_tangled_cord",
    "split_composition",
]


@dataclass(frozen=True)
class Dow:
    """A validated double occurrence word.

    >>> Dow((1, 2, 1, 2)).n
    2
    >>> Dow((1, 2))
    Traceback (most recent call last):
        ...
    dowgraph.errors.NotDoubleOccurrenceError: letter 1 occurs 1 time(s), expected 2
    """

    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.letters:
            raise EmptyWordError("a word needs at least one letter")
        counts: dict[int, int] = {}
        for a in self.letters:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise BadTokenError(f"letters must be positive integers, got {a!r}")
            counts[a] = counts.get(a, 0) + 1
        for a, c in counts.items():
            if c != 2:
                raise NotDoubleOccurrenceError(f"letter {a} occurs {c} time(s), expected 2")

    @property
    def n(self) -> int:
        """Number of distinct letters; the word has length 2n."""
        return len(self.letters) // 2

    @property
    def alphabet(self) -> frozenset[int]:
        return frozenset(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True, eq=False)
class OccurrenceIndex:
    """First and second occurrence positions (1-based) for each letter."""

    pairs: dict[int, tuple[int, int]]

    def first(self, a: int) -> int:
        return self.pairs[a][0]

    def second(self, a: int) -> int:
        return self.pairs[a][1]

    def __getitem__(self, a: int) -> tuple[int, int]:
        return self.pairs[a]

    def __contains__(self, a: int) -> bool:
        return a in self.pairs


@dataclass(frozen=True)
class Segment:
    """One maximal run of surviving letters, with its original position span.

    ``start`` and ``end`` are 1-based and inclusive, so ``end - start + 1``
    equals ``len(letters)``.
    """

    start: int
    end: int
    letters: tuple[int, ...]


@dataclass(frozen=True)
class SubwordSplit:
    """The ordered segments that remain after deleting a letter subset."""

    segments: tuple[Segment, ...]

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(s.letters) for s in self.segments)

    def contents(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s.letters for s in self.segments)

    def all_even(self) -> bool:
        return all(len(s.letters) % 2 == 0 for s in self.segments)


@dataclass(frozen=True)
class Projection:
    """The occurrences of a chosen letter subset, kept in original order."""

    content: tuple[int, ...]

    def to_dow(self) -> Dow:
        return Dow(self.content)


_COMPACT_RE = re.compile(r"^[0-9]+$")


def parse(text: str) -> Dow:
    """Parse a word from compact or token text form.

    >>> parse("1212").letters
    (1, 2, 1, 2)
    >>> parse("1 2 12 1 2 12").letters
    (1, 2, 12, 1, 2, 12)
    """
    stripped = text.strip()
    if not stripped:
        raise EmptyWordError("empty word")
    if _COMPACT_RE.match(stripped):
        if "0" in stripped:
            raise BadTokenError("digit 0 is not a letter; compact form covers letters 1..9")
        return Dow(tuple(int(c) for c in stripped))
    letters = []
    for token in re.split(r"[,\s]+", stripped):
        if not token:
            continue
        # str.isdigit alone admits digits such as "²" that int() refuses
        if not (token.isascii() and token.isdigit()) or int(token) < 1:
            raise BadTokenError(f"bad letter token {token!r}")
        letters.append(int(token))
    return Dow(tuple(letters))


def render(word: Dow) -> str:
    """Inverse of :func:`parse`: compact while the alphabet allows it.

    >>> render(Dow((1, 2, 1, 2)))
    '1212'
    """
    if max(word.letters) <= 9:
        return "".join(str(a) for a in word.letters)
    return " ".join(str(a) for a in word.letters)


def occurrences(word: Dow) -> OccurrenceIndex:
    """Map each letter to its pair of 1-based positions.

    >>> occurrences(parse("1212"))[2]
    (2, 4)
    """
    pairs: dict[int, tuple[int, int]] = {}
    seen: dict[int, int] = {}
    for pos, a in enumerate(word.letters, start=1):
        if a in seen:
            pairs[a] = (seen[a], pos)
        else:
            seen[a] = pos
    return OccurrenceIndex(pairs)


def canonicalize(word: Dow) -> Dow:
    """Rename letters so that first occurrences read 1, 2, 3, ...

    >>> render(canonicalize(parse("7373")))
    '1212'
    """
    relabel: dict[int, int] = {}
    out = []
    for a in word.letters:
        if a not in relabel:
            relabel[a] = len(relabel) + 1
        out.append(relabel[a])
    return Dow(tuple(out))


def reverse_word(word: Dow) -> Dow:
    return Dow(word.letters[::-1])


def class_representative(word: Dow) -> Dow:
    """The smaller of the canonical forms of the word and its reversal.

    Constant on equivalence classes, so two words are equivalent exactly when
    their representatives are equal.

    >>> render(class_representative(parse("2121")))
    '1212'
    """
    forward = canonicalize(word)
    backward = canonicalize(reverse_word(word))
    return forward if forward.letters <= backward.letters else backward


def delete_letters(letters: Sequence[int], sigma: Iterable[int]) -> SubwordSplit:
    """Split any letter sequence into the maximal runs avoiding ``sigma``.

    Works on plain sequences so that recursive algorithms can use it on
    windows of a word that are not themselves double occurrence words.
    """
    kill = frozenset(sigma)
    if not kill:
        raise SigmaEmptyError("the deleted letter set must be non-empty")
    segments: list[Segment] = []
    run_start = None
    run: list[int] = []
    for pos, a in enumerate(letters, start=1):
        if a in kill:
            if run:
                segments.append(Segment(run_start, pos - 1, tuple(run)))
                run, run_start = [], None
        else:
            if not run:
                run_start = pos
            run.append(a)
    if run:
        segments.append(Segment(run_start, len(letters), tuple(run)))
    return SubwordSplit(tuple(segments))


def delete(word: Dow, sigma: Iterable[int]) -> SubwordSplit:
    """Remove all occurrences of ``sigma`` letters, keeping the gaps visible.

    >>> split = delete(parse("1342134856757286"), {2, 5, 8})
    >>> split.contents()
    ((1, 3, 4), (1, 3, 4), (6, 7), (7,), (6,))
    """
    return delete_letters(word.letters, sigma)


def project(word: Dow, sigma: Iterable[int]) -> Projection:
    """Keep only occurrences of ``sigma`` letters, in original order.

    >>> project(parse("1342134856757286"), {2, 5, 8}).content
    (2, 8, 5, 5, 2, 8)
    """
    keep = frozenset(sigma)
    if not keep:
        raise SigmaEmptyError("the projected letter set must be non-empty")
    return Projection(tuple(a for a in word.letters if a in keep))


def tangled_cord(n: int) -> Dow:
    """The length-2n word 1213243... built by chaining overlapped pairs.

    Each letter k+1 starts strictly inside the span of letter k and ends
    strictly after it, so consecutive letters interlock all the way down
    the word.

    >>> [render(tangled_cord(k)) for k in (1, 2, 3, 4)]
    ['11', '1212', '121323', '12132434']
    """
    if n < 1:
        raise InputError("n must be at least 1")
    if n == 1:
        return Dow((1, 1))
    out = [1, 2, 1]
    for k in range(3, n + 1):
        out.extend((k, k - 1))
    out.append(n)
    return Dow(tuple(out))


def is_tangled_cord(word: Dow) -> bool:
    """True when the word is a tangled cord up to renaming (and reversal;
    the tangled cord reads the same backwards after canonicalizing)."""
    return canonicalize(word).letters == tangled_cord(word.n).letters


def split_composition(word: Dow) -> tuple[Dow, Dow] | None:
    """Split off the shortest proper prefix that is a complete word.

    When some proper prefix contains both occurrences of every letter in it,
    the word is a concatenation of two words over disjoint alphabets.

    >>> left, right = split_composition(parse("112323"))
    >>> render(left), render(right)
    ('11', '2323')
    >>> split_composition(parse("1212")) is None
    True
    """
    open_letters: set[int] = set()
    for pos, a in enumerate(word.letters, start=1):
        if a in open_letters:
            open_letters.discard(a)
        else:
            open_letters.add(a)
        if not open_letters and pos < len(word.letters):
            return Dow(word.letters[:pos]), Dow(word.letters[pos:])
    return None
