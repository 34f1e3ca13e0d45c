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

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, groupby

from .errors import (
    BadTokenError,
    EmptyWordError,
    NotDoubleOccurrenceError,
    PreconditionViolatedError,
    SigmaEmptyError,
    _require_int,
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

    The constructor takes the fields in slot order, positionally or by
    keyword; only a field named in ``_defaults`` may be left out.  A missing,
    unknown or repeated field, or too many arguments, is a
    :class:`TypeError`.  A subclass that validates its arguments writes its
    own ``__init__`` and sets the fields in slot order through
    ``__setstate__``; :meth:`_restore` builds an instance from fields that
    were validated before, as unpickling does.
    """

    __slots__ = ()
    _defaults: dict[str, object] = {}
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # each slot's member descriptor sets its field past __setattr__,
        # without object.__setattr__'s lookup by name
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    @classmethod
    def _restore(cls, fields: tuple):
        """An instance with ``fields`` in slot order, set without validating
        them again, as unpickling sets them."""
        self = cls.__new__(cls)
        self.__setstate__(fields)
        return self

    def __init__(self, *args: object, **kwargs: object) -> None:
        if kwargs or len(args) != len(self.__slots__):
            args = self._bind(args, kwargs)
        self.__setstate__(args)

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        names, cls = self.__slots__, type(self).__qualname__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} fields but {len(args)} were given")
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls}() got an unknown field {name!r}")
            if name in given:
                raise TypeError(f"{cls}() got field {name!r} twice")
            given[name] = value
        fields = {**self._defaults, **given}
        missing = [name for name in names if name not in fields]
        if missing:
            raise TypeError(f"{cls}() is missing field(s) {', '.join(map(repr, missing))}")
        return tuple([fields[name] for name in names])

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
        for set_field, value in zip(self._setters, state):
            set_field(self, value)


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

    def __init__(self, letters: Iterable[int]) -> None:
        letters = tuple(letters)
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
        self.__setstate__((letters,))

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


class SubwordSplit(_Frozen):
    """The ordered segments that remain after deleting a letter subset."""

    __slots__ = ("segments",)
    segments: tuple[Segment, ...]

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(s.letters) for s in self.segments)

    def contents(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s.letters for s in self.segments)

    def all_even(self) -> bool:
        return all(len(s.letters) % 2 == 0 for s in self.segments)


def parse(text: str) -> Dow:
    """Parse a word from compact or token text form.

    Text of ASCII digits alone is the compact form, one letter per digit.
    Anything else is split into tokens at commas and whitespace, and each
    token must be a positive number in ASCII digits.

    >>> parse("1212").letters
    (1, 2, 1, 2)
    >>> parse("1 2 12 1 2 12").letters
    (1, 2, 12, 1, 2, 12)
    """
    stripped = text.strip()
    if not stripped:
        raise EmptyWordError("empty word")
    # str.isdigit alone admits digits such as "²" that int() refuses
    if stripped.isascii() and stripped.isdigit():
        if "0" in stripped:
            raise BadTokenError("digit 0 is not a letter; compact form covers letters 1..9")
        return Dow(int(c) for c in stripped)
    letters = []
    for token in stripped.replace(",", " ").split():
        if not (token.isascii() and token.isdigit()) or int(token) < 1:
            raise BadTokenError(f"bad letter token {token!r}")
        letters.append(int(token))
    return Dow(letters)


# byte k to the ASCII digit k, for the compact form's letters 1..9
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def render(word: Dow) -> str:
    """Inverse of :func:`parse`: compact while the alphabet allows it.

    The compact form is one byte per letter, translated to its digit in
    one call; the token form joins the letters' decimal strings.

    >>> render(Dow((1, 2, 1, 2))), render(Dow((1, 10, 1, 10)))
    ('1212', '1 10 1 10')
    """
    return _render(word.letters)


def _render(letters: Sequence[int]) -> str:
    # render on the letters of a word, built or not
    separator = _separator(max(letters))
    if separator:
        return separator.join(map(str, letters))
    return bytes(letters).translate(_DIGITS).decode()


def _separator(top: int) -> str:
    """What :func:`render` puts between letters when the largest is ``top``."""
    return "" if top <= 9 else " "


def occurrences(word: Dow) -> dict[int, tuple[int, int]]:
    """Map each letter to its first and second 1-based positions, in the
    order the second occurrences appear.

    >>> occurrences(parse("1212"))
    {1: (1, 3), 2: (2, 4)}

    The same rule serves any letter sequence, where the pair is right for
    each letter that occurs exactly twice; the cord recursion reads no other.
    """
    return _occurrences(word.letters)


def _occurrences(letters: Sequence[int]) -> dict[int, tuple[int, int]]:
    # occurrences on any letter sequence
    pairs: dict[int, tuple[int, int]] = {}
    seen: dict[int, int] = {}
    for pos, a in enumerate(letters, start=1):
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
    start = 1
    for killed, group in groupby(letters, kill.__contains__):
        run = tuple(group)
        if not killed:
            segments.append(Segment(start, start + len(run) - 1, run))
        start += len(run)
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
    if not cord:
        raise PreconditionViolatedError("a cord needs at least one letter")
    out = [cord[0]]
    for k in range(1, len(cord)):
        out.extend((cord[k], cord[k - 1]))
    out.append(cord[-1])
    return tuple(out)


def tangled_cord(n: int) -> Dow:
    """The length-2n word 1213243..., the cord pattern over 1..n.

    >>> [render(tangled_cord(k)) for k in (1, 2, 3, 4)]
    ['11', '1212', '121323', '12132434']
    """
    return Dow(chain.from_iterable(_tangled_pieces(n)))


_PIECE = 2048


def _tangled_pieces(n: int) -> Iterator[tuple[int, ...]]:
    """The letters of the tangled cord over 1..n, ``2 * _PIECE`` at most at a
    time: :func:`cord_pattern`'s first letter, each letter with the one
    before it, in windows, and its last.  A bad n is refused at the call."""
    _require_int("n", n, 1)
    return chain([(1,)], (cord_pattern(range(lo - 1, min(lo + _PIECE, n + 1)))[1:-1]
                          for lo in range(2, n + 1, _PIECE)), [(n,)])


def _is_tangled(letters: Sequence[int]) -> bool:
    """:func:`is_tangled_cord` on the letters of a word, built or not."""
    return tuple(letters) == cord_pattern(tuple(dict.fromkeys(letters)))


def is_tangled_cord(word: Dow) -> bool:
    """True when the word is the cord pattern over its own letters, in the
    order they open: a tangled cord up to renaming (and reversal; the
    tangled cord reads the same backwards after canonicalizing)."""
    return _is_tangled(word.letters)


def _composition_cut(pairs: dict[int, tuple[int, int]]) -> int | None:
    """The length of the shortest proper prefix that is a complete word,
    read off the word's :func:`occurrences`.

    They come in closing order, so the prefix that ends at the k-th closing
    position holds k closed letters, and it is complete exactly when that
    position is 2k.  The whole word always is.
    """
    cut = next(2 * k for k, (_, close) in enumerate(pairs.values(), start=1) if close == 2 * k)
    return cut if cut < 2 * len(pairs) else None


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
    cut = _composition_cut(occurrences(word))
    if cut is None:
        return None
    return Dow(word.letters[:cut]), Dow(word.letters[cut:])
