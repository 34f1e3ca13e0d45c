"""Exhaustive census of words with n letters, one row per equivalence class.

Every word with n letters has exactly one canonical form, whose first
occurrences read 1, 2, 3, ...  The canonical words are the leaves of a
prefix trie of depth 2n: at each position a word either closes one of its
open letters (those seen once so far) or opens the next letter.  Taking
the closes in ascending order and the opening last walks the leaves in
lexicographic order, so the classes come out sorted with no sort.  No
branch dies, and the last position is forced: there one letter is open and
none is left to open, so the walk closes it with no further search.  There
are (2n-1)!! leaves, one per perfect matching of the 2n positions; a leaf
is kept only when it reads no later than the canonical form of its
reversal, which drops the reversal duplicates.  The trie builds every leaf
valid, canonical and with each letter twice, so a kept leaf becomes a
:class:`~dowgraph.words.Dow` without validating it again; the tests check
the trie's words against the validating :func:`iter_canonical_words`.

The census then analyzes every class and checks the headline facts on the
way out: nobody exceeds the Fibonacci bound, the parity verdict matches the
count, the single bound-attaining class is the tangled cord, compositions
are never maximal, and framing cords exist exactly off the compositions.
The whole verdict is reached here, in :func:`summarize_records`: the last
two facts raise at once, and the first three fill the summary's
``failures``, on which the command line raises after writing its output.

Every class is counted: the bound check and the count/parity check cover the
whole census, never a part of it.  Each task's classes are counted by one
batch of :func:`~dowgraph.counting.count_words`, whose frontier
programme extends each class only past the prefix it shares with the
previous one: at n = 6, in the ten tasks of one process, that is 10,206
programme steps (letters read) instead of 58,993 for a fresh count per
class.  The other fields come from the verdict core that
:func:`~dowgraph.maximality.analyze` runs after canonicalizing, with all of
its checks; the classes are canonical already, so the census calls the
core directly and builds no report.

The tasks are the trie's prefixes at the shallowest depth that gives at
least eight per process; each task generates, counts and analyzes the
subtrie below its prefix, and the parent takes the results in prefix
order, which is the class order.  One process runs the tasks in turn, so
that it holds one task's rows at a time; worker processes run them in a
pool.  A task returns plain rows of letters, integers and booleans, and
the parent builds the records from them: at n = 6 the rows pickle in
about a tenth of the time the records took.  The CSV writer renders its
rows itself and writes them 256 at a time, so an unbuffered stdout sees
21 writes at n = 6, not 5,364.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from math import prod
from typing import TextIO

from .errors import InternalCheckError, TooLargeError, _require_int
from .counting import count_words, fibonacci
from .maximality import _verdicts
from .words import Dow, _Frozen, _occurrences, render, tangled_cord
# bench/spans.py wraps both here by name; they stay importable
from .maximality import analyze  # noqa: F401
from .words import class_representative  # noqa: F401

__all__ = [
    "CENSUS_LIMIT",
    "CensusRecord",
    "CensusSummary",
    "iter_canonical_words",
    "enumerate_dow_classes",
    "census_records",
    "summarize_records",
    "run_census",
    "write_records_csv",
]

# (2n-1)!! doubles quickly: n = 8 already means 2,027,025 raw words
CENSUS_LIMIT = 8
# how many offending representatives a summary keeps of each kind
OFFENDERS_KEPT = 5


class CensusRecord(_Frozen):
    """One class representative with its headline numbers."""

    __slots__ = ("representative", "count", "bound", "is_maximal", "is_composition",
                 "has_framing_cord")
    representative: Dow
    count: int
    bound: int
    is_maximal: bool
    is_composition: bool
    has_framing_cord: bool


class CensusSummary(_Frozen):
    """The census tallies and its verdict.  ``failures`` holds, in a fixed
    order, one entry per check that failed: its label and the first few
    offending representatives.  It is empty exactly when the census comes
    out clean, and it stays out of the JSON form; the command line raises
    on it after writing its output."""

    __slots__ = ("n", "total_classes", "maximal_classes", "bound_violations",
                 "equivalence_failures", "failures")
    n: int
    total_classes: int
    maximal_classes: tuple[Dow, ...]
    bound_violations: int
    equivalence_failures: int
    failures: tuple[tuple[str, tuple[Dow, ...]], ...]
    _defaults = {"failures": ()}

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "total_classes": self.total_classes,
            "maximal_classes": [render(w) for w in self.maximal_classes],
            "bound_violations": self.bound_violations,
            "equivalence_failures": self.equivalence_failures,
        }


def iter_canonical_words(n: int) -> Iterator[Dow]:
    """All canonical words with n letters, one per position matching.

    The raw-word oracle that the trie of :func:`enumerate_dow_classes` is
    tested against; the census does not use it.  It pairs the first free
    position with every later one, so the words come out unsorted.
    """
    _require_int("n", n, 1)
    two_n = 2 * n
    word = [0] * two_n

    def rec(letter: int, cursor: int) -> Iterator[Dow]:
        first = cursor
        while word[first]:
            first += 1
        word[first] = letter
        for q in range(first + 1, two_n):
            if word[q] == 0:
                word[q] = letter
                if letter == n:
                    yield Dow(word)
                else:
                    yield from rec(letter + 1, first + 1)
                word[q] = 0
        word[first] = 0

    return rec(1, 0)


def _check_census_size(n: int, unsafe_large: bool) -> None:
    _require_int("n", n, 1)
    if n > CENSUS_LIMIT and not unsafe_large:
        raise TooLargeError(
            f"a census at n = {n} would enumerate {prod(range(2 * n - 1, 0, -2)):,} "
            f"raw words; use the unsafe-large override to insist"
        )


def _is_representative(letters: Sequence[int]) -> bool:
    """Whether a canonical word is its class representative.

    That is ``letters <= _first_occurrence_labels(letters[::-1])``, the
    reversal's canonical form, compared only up to the first difference.

    >>> _is_representative((1, 1, 2, 2)), _is_representative((1, 2, 2, 1))
    (True, True)
    >>> _is_representative((1, 2, 1, 2, 3, 3))  # reversed, it reads 112323
    False
    """
    relabel: dict[int, int] = {}
    for a, b in zip(letters, reversed(letters)):
        b = relabel.setdefault(b, len(relabel) + 1)
        if a != b:
            return a < b
    return True


def _walk_trie(
    n: int, prefix: tuple[int, ...], depth: int,
    keep: Callable[[list[int]], bool] | None = None,
) -> list[tuple[int, ...]]:
    """The canonical prefixes of length ``depth`` that extend ``prefix``, a
    canonical prefix itself, in lexicographic order; with ``keep``, only
    those it accepts.  ``keep`` gets one list that the walk keeps
    rewriting.  No branch dies: the open letters plus twice the unopened
    ones fill the positions left, so at position 2n - 1 one letter is open
    and none is left to open, and the walk closes it there with no search."""
    word = list(prefix) + [0] * (depth - len(prefix))
    # the letters seen once so far, ascending
    once = sorted(set(prefix).difference(_occurrences(prefix)))
    found: list[tuple[int, ...]] = []
    forced = 2 * n - 1 if depth == 2 * n else -1

    def rec(pos: int, opened: int) -> None:
        if pos == forced:
            word[pos] = once[0]
            pos += 1
        if pos == depth:
            if keep is None or keep(word):
                found.append(tuple(word))
            return
        for i in range(len(once)):
            a = once.pop(i)
            word[pos] = a
            rec(pos + 1, opened)
            once.insert(i, a)
        if opened < n:
            once.append(opened + 1)
            word[pos] = opened + 1
            rec(pos + 1, opened + 1)
            once.pop()

    rec(len(prefix), max(prefix, default=0))
    return found


def _trie_classes(n: int, prefix: tuple[int, ...] = ()) -> list[Dow]:
    """Class representatives with n letters that start with ``prefix``.

    ``prefix`` must be a prefix of a canonical word with n letters.  The
    walk down the trie below it meets the canonical words in lexicographic
    order, so the representatives come back sorted.  Each leaf is built
    valid, so it becomes a :class:`Dow` as it stands, without validation.

    >>> [render(w) for w in _trie_classes(3, (1, 2, 1))]
    ['121323', '121332']
    >>> [render(w) for w in _trie_classes(2)]
    ['1122', '1212', '1221']
    """
    kept = _walk_trie(n, prefix, 2 * n, _is_representative)
    return [Dow._restore((letters,)) for letters in kept]


def _trie_prefixes(n: int, at_least: int) -> list[tuple[int, ...]]:
    """The trie's prefixes at the shallowest depth with ``at_least`` of them
    (or its leaves, if there are fewer), in lexicographic order.

    >>> _trie_prefixes(3, 4)
    [(1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)]
    """
    for depth in range(2 * n + 1):
        prefixes = _walk_trie(n, (), depth)
        if len(prefixes) >= at_least:
            break
    return prefixes


def enumerate_dow_classes(n: int, unsafe_large: bool = False) -> list[Dow]:
    """Class representatives with n letters, sorted lexicographically."""
    _check_census_size(n, unsafe_large)
    return _trie_classes(n)


def _analyze_subtrie(n: int, prefix: tuple[int, ...]) -> list[tuple]:
    """Rows ``(letters, count, is_maximal, is_composition, has_framing_cord)``
    for the classes below one trie prefix, in class order: one census task.

    The counts come from one batch of the counting programme, which shares
    the work along the common prefixes of the sorted classes; every other
    field comes from the verdict core of :func:`analyze`.  A row holds only
    a tuple, an integer and booleans, so that it pickles cheaply;
    :func:`census_records` builds the records from the rows.
    """
    words = _trie_classes(n, prefix)
    rows = []
    for word, count in zip(words, count_words(words)):
        split, is_composition, cord = _verdicts(word)
        rows.append((word.letters, count, split is None, is_composition, cord is not None))
    return rows


def census_records(n: int, threads: int = 1, unsafe_large: bool = False) -> list[CensusRecord]:
    """Analyze every class; record order always matches the class order.

    ``threads`` above one fans the trie out over worker processes, one task
    per prefix, with at least eight prefixes per worker.  The rows are
    turned into records in prefix order as they arrive, so the output is
    identical whatever the degree of parallelism.  The pool never has more
    workers than tasks, or than CPUs this process may run on.
    """
    _require_int("threads", threads, 1)
    _check_census_size(n, unsafe_large)
    # more workers than CPUs or tasks would only cost start-up time; the
    # CPUs are those this process may run on, where the platform says
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(threads, cpus or 1))
    prefixes = _trie_prefixes(n, workers * 8)
    task = partial(_analyze_subtrie, n)
    if workers == 1:
        return _records(n, map(task, prefixes))
    # imported here so that one-process runs skip its start-up cost
    import multiprocessing

    with multiprocessing.Pool(processes=min(workers, len(prefixes))) as pool:
        return _records(n, pool.imap(task, prefixes))


def _records(n: int, parts: Iterable[list[tuple]]) -> list[CensusRecord]:
    """The records of the tasks' rows, taken in order and one task at a
    time, so that only one task's rows are held beside the records."""
    bound = fibonacci(2 * n + 1) - 1
    # the trie built the letters valid (see _trie_classes); positional
    # arguments, since the keyword path costs about three times as much
    return [
        CensusRecord(Dow._restore((letters,)), count, bound, is_maximal, is_composition, has_cord)
        for rows in parts
        for letters, count, is_maximal, is_composition, has_cord in rows
    ]


def summarize_records(n: int, records: list[CensusRecord]) -> CensusSummary:
    """Fold records into a summary and judge the census.

    A composition that tests maximal, or a framing cord present on exactly
    the wrong side of the composition split, would falsify the theory this
    package implements, so either raises immediately.  The paper's headline
    checks are judged in ``failures`` instead, with the first few offending
    representatives: no count exceeds the bound, the parity verdict agrees
    with the count, and the tangled cord is the one maximal class.  On any
    correct run ``failures`` is empty.
    """
    for r in records:
        if r.is_composition and r.is_maximal:
            raise InternalCheckError(
                f"composition {render(r.representative)} reported maximal"
            )
        if r.has_framing_cord == r.is_composition:
            raise InternalCheckError(
                f"framing cord and composition coincide on {render(r.representative)}"
            )
    maximal = tuple(
        sorted((r.representative for r in records if r.is_maximal), key=lambda w: w.letters)
    )
    violating = [r.representative for r in records if r.count > r.bound]
    disagreeing = [r.representative for r in records if (r.count == r.bound) != r.is_maximal]
    cord = tangled_cord(n)
    unexpected = [w for w in maximal if w != cord]
    checks = (
        (f"{len(violating)} bound violation(s)", violating),
        (f"{len(disagreeing)} count/parity disagreement(s)", disagreeing),
        (f"{len(unexpected)} unexpected maximal class(es)", unexpected),
        ("tangled cord not maximal", [] if cord in maximal else [cord]),
    )
    return CensusSummary(
        n=n,
        total_classes=len(records),
        maximal_classes=maximal,
        bound_violations=len(violating),
        equivalence_failures=len(disagreeing),
        failures=tuple(
            (label, tuple(words[:OFFENDERS_KEPT])) for label, words in checks if words
        ),
    )


def run_census(n: int, threads: int = 1, unsafe_large: bool = False) -> CensusSummary:
    records = census_records(n, threads=threads, unsafe_large=unsafe_large)
    return summarize_records(n, records)


def write_records_csv(records: list[CensusRecord], stream: TextIO) -> None:
    """One row per class; booleans spelled lowercase for easy ingestion.

    The bytes are those of :func:`csv.writer` with its defaults, CRLF line
    ends and no quoting, since no field can hold a comma, a quote or a line
    break.  The rows go out 256 at a time: on an unbuffered stream each
    write is a system call, and a census at n = 6 has 5,364 lines.
    """
    spell = ("false", "true")
    block = [",".join(CensusRecord.__slots__) + "\r\n"]
    for r in records:
        block.append(f"{render(r.representative)},{r.count},{r.bound},{spell[r.is_maximal]},"
                     f"{spell[r.is_composition]},{spell[r.has_framing_cord]}\r\n")
        if len(block) == 256:
            stream.write("".join(block))
            block.clear()
    stream.write("".join(block))
