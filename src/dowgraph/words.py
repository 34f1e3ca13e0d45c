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
from functools import lru_cache

from .errors import (
    BadTokenError,
    EmptyWordError,
    InputError,
    NotDoubleOccurrenceError,
    PreconditionViolatedError,
    SigmaEmptyError,
)

__all__ = [
    "Dow",
    "Segment",
    "SubwordSplit",
    "parse",
    "render",
    "occurrences",
    "canonicalize",
    "reverse_word",
    "class_representative",
    "delete",
    "delete_letters",
    "project",
    "cord_pattern",
    "tangled_cord",
    "is_tangled_cord",
    "split_composition",
]


class _Frozen:
    """An immutable record of the fields named in ``__slots__``.

    It behaves as a frozen dataclass would: ``==`` holds between instances
    of one class with equal field tuples, ``hash`` is the hash of that
    tuple, the repr reads ``Name(field=value, ...)``, and assigning or
    deleting an attribute raises :class:`AttributeError`.  Pickling and
    copying carry the field tuple and restore it as it was, without
    validating again.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._fields())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._fields()

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class Dow(_Frozen):
    """A validated double occurrence word.

    >>> Dow((1, 2, 1, 2)).n
    2
    >>> Dow((1, 2))
    Traceback (most recent call last):
        ...
    dowgraph.errors.NotDoubleOccurrenceError: letter 1 occurs 1 time(s), expected 2
    """

    __slots__ = ("letters",)
    letters: tuple[int, ...]

    def __init__(self, letters: tuple[int, ...]) -> None:
        if not letters:
            raise EmptyWordError("a word needs at least one letter")
        counts: dict[int, int] = {}
        for a in letters:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise BadTokenError(f"letters must be positive integers, got {a!r}")
            counts[a] = counts.get(a, 0) + 1
        for a, c in counts.items():
            if c != 2:
                raise NotDoubleOccurrenceError(f"letter {a} occurs {c} time(s), expected 2")
        object.__setattr__(self, "letters", letters)

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


class Segment(_Frozen):
    """One maximal run of surviving letters, with its original position span.

    ``start`` and ``end`` are 1-based and inclusive, so ``end - start + 1``
    equals ``len(letters)``.
    """

    __slots__ = ("start", "end", "letters")
    start: int
    end: int
    letters: tuple[int, ...]

    def __init__(self, start: int, end: int, letters: tuple[int, ...]) -> None:
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "letters", letters)


class SubwordSplit(_Frozen):
    """The ordered segments that remain after deleting a letter subset."""

    __slots__ = ("segments",)
    segments: tuple[Segment, ...]

    def __init__(self, segments: tuple[Segment, ...]) -> None:
        object.__setattr__(self, "segments", segments)

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(s.letters) for s in self.segments)

    def contents(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s.letters for s in self.segments)

    def all_even(self) -> bool:
        return all(len(s.letters) % 2 == 0 for s in self.segments)


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


def occurrences(word: Dow) -> dict[int, tuple[int, int]]:
    """Map each letter to its first and second 1-based positions, in the
    order the second occurrences appear.

    >>> occurrences(parse("1212"))
    {1: (1, 3), 2: (2, 4)}
    """
    pairs: dict[int, tuple[int, int]] = {}
    seen: dict[int, int] = {}
    for pos, a in enumerate(word.letters, start=1):
        if a in seen:
            pairs[a] = (seen[a], pos)
        else:
            seen[a] = pos
    return pairs


def _first_occurrence_labels(letters: Sequence[int]) -> tuple[int, ...]:
    """Relabel a letter sequence so that first occurrences read 1, 2, 3, ..."""
    relabel: dict[int, int] = {}
    return tuple([relabel.setdefault(a, len(relabel) + 1) for a in letters])


def canonicalize(word: Dow) -> Dow:
    """Rename letters so that first occurrences read 1, 2, 3, ...

    A word that is already canonical comes back as itself.

    >>> render(canonicalize(parse("7373")))
    '1212'
    """
    letters = _first_occurrence_labels(word.letters)
    return word if letters == word.letters else Dow(letters)


def reverse_word(word: Dow) -> Dow:
    return Dow(word.letters[::-1])


def class_representative(word: Dow) -> Dow:
    """The smaller of the canonical forms of the word and its reversal.

    Constant on equivalence classes, so two words are equivalent exactly when
    their representatives are equal.  A word that is its own representative
    comes back as itself.

    >>> render(class_representative(parse("2121")))
    '1212'
    """
    forward = _first_occurrence_labels(word.letters)
    backward = _first_occurrence_labels(word.letters[::-1])
    best = min(forward, backward)
    return word if best == word.letters else Dow(best)


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


def project(word: Dow, sigma: Iterable[int]) -> tuple[int, ...]:
    """The occurrences of ``sigma`` letters, in word order; wrap the tuple
    in :class:`Dow` to treat the projection as a word.

    >>> project(parse("1342134856757286"), {2, 5, 8})
    (2, 8, 5, 5, 2, 8)
    """
    keep = frozenset(sigma)
    if not keep:
        raise SigmaEmptyError("the projected letter set must be non-empty")
    return tuple([a for a in word.letters if a in keep])


def cord_pattern(cord: Sequence[int]) -> tuple[int, ...]:
    """The tangled pattern t_1 t_2 t_1 t_3 t_2 ... t_s t_(s-1) t_s over an
    ordered letter sequence: each letter starts inside the span of the one
    before it and ends after it.  A framing cord's letters project to it."""
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


def tangled_cord(n: int) -> Dow:
    """The length-2n word 1213243..., the tangled pattern over 1..n.

    >>> [render(tangled_cord(k)) for k in (1, 2, 3, 4)]
    ['11', '1212', '121323', '12132434']
    """
    if n < 1:
        raise InputError("n must be at least 1")
    return Dow(_tangled_letters(n))


@lru_cache(maxsize=32)
def _tangled_letters(n: int) -> tuple[int, ...]:
    return cord_pattern(range(1, n + 1))


def _is_tangled(letters: Sequence[int]) -> bool:
    """:func:`is_tangled_cord` on the letters of a word, built or not."""
    return _first_occurrence_labels(letters) == _tangled_letters(len(letters) // 2)


def is_tangled_cord(word: Dow) -> bool:
    """True when the word is a tangled cord up to renaming (and reversal;
    the tangled cord reads the same backwards after canonicalizing)."""
    return _is_tangled(word.letters)


def _composition_cut(letters: Sequence[int]) -> int | None:
    """The length of the shortest proper prefix that is a complete word.

    Every letter occurs twice, so a prefix is complete exactly when it is
    twice as long as its alphabet.
    """
    seen: set[int] = set()
    for pos, a in enumerate(letters[:-1], start=1):
        seen.add(a)
        if 2 * len(seen) == pos:
            return pos
    return None


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
    cut = _composition_cut(word.letters)
    if cut is None:
        return None
    return Dow(word.letters[:cut]), Dow(word.letters[cut:])
