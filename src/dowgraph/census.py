"""Exhaustive census of words with n letters, one row per equivalence class.

Every word with n letters corresponds to a perfect matching of the 2n
positions (the two slots of each letter), so the raw canonical words are
enumerated by pairing the first free position with every later one.  That
produces (2n-1)!! words; keeping only those equal to their own class
representative removes the reversal duplicates.

The census then analyzes every class and checks the headline facts on the
way out: nobody exceeds the Fibonacci bound, the parity verdict matches the
enumerated count, the single bound-attaining class is the tangled cord,
compositions are never maximal, and framing cords exist exactly off the
compositions.

The classes come out sorted, so neighbours share long prefixes.  Each run of
classes (the whole list in one process, or one chunk per worker task) is
counted by one batch of :func:`~dowgraph.hamiltonian.count_words`, whose
frontier programme extends each class only past the prefix it shares with
the previous one: at n = 6 that is 15,545 programme steps instead of 58,993
for a fresh count per class.  Every other field of a record comes from
:func:`~dowgraph.maximality.analyze` with counting switched off.
"""

from __future__ import annotations

import csv
import multiprocessing
import os
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TextIO

from .errors import InputError, InternalCheckError, TooLargeError
from .hamiltonian import count_words
from .maximality import DEFAULT_CROSS_CHECK_LIMIT, analyze
from .words import Dow, class_representative, render

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


@dataclass(frozen=True)
class CensusRecord:
    """One class representative with its headline numbers."""

    representative: Dow
    count: int | None
    bound: int
    is_maximal: bool
    is_composition: bool
    has_framing_cord: bool


@dataclass(frozen=True)
class CensusSummary:
    """The census tallies.  ``violating`` and ``disagreeing`` hold the first
    few representatives behind ``bound_violations`` and
    ``equivalence_failures``; they stay out of the JSON form."""

    n: int
    total_classes: int
    maximal_classes: tuple[Dow, ...]
    bound_violations: int
    equivalence_failures: int
    violating: tuple[Dow, ...] = ()
    disagreeing: tuple[Dow, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "total_classes": self.total_classes,
            "maximal_classes": [render(w) for w in self.maximal_classes],
            "bound_violations": self.bound_violations,
            "equivalence_failures": self.equivalence_failures,
        }


def iter_canonical_words(n: int) -> Iterator[Dow]:
    """All canonical words with n letters, one per position matching."""
    if n < 1:
        raise InputError("n must be at least 1")
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
                    yield Dow(tuple(word))
                else:
                    yield from rec(letter + 1, first + 1)
                word[q] = 0
        word[first] = 0

    return rec(1, 0)


def _check_census_size(n: int, unsafe_large: bool) -> None:
    if n > CENSUS_LIMIT and not unsafe_large:
        raise TooLargeError(
            f"a census at n = {n} would enumerate {_double_factorial(2 * n - 1):,} "
            f"raw words; use the unsafe-large override to insist"
        )


def _double_factorial(k: int) -> int:
    out = 1
    for v in range(k, 0, -2):
        out *= v
    return out


def enumerate_dow_classes(n: int, unsafe_large: bool = False) -> list[Dow]:
    """Class representatives with n letters, sorted lexicographically."""
    _check_census_size(n, unsafe_large)
    reps = [w for w in iter_canonical_words(n) if class_representative(w) == w]
    reps.sort(key=lambda w: w.letters)
    return reps


def _analyze_chunk(job: tuple[list[tuple[int, ...]], int]) -> list[CensusRecord]:
    """Records for a run of classes, all with the same n, in order.

    The counts come from one batch of the counting programme, which shares
    the work along the common prefixes of the sorted classes; every other
    field comes from :func:`analyze`.
    """
    chunk, limit = job
    words = [Dow(letters) for letters in chunk]
    counts = count_words(words) if words[0].n <= limit else [None] * len(words)
    records = []
    for word, count in zip(words, counts):
        report = analyze(word, cross_check_limit=0)
        records.append(
            CensusRecord(
                representative=report.word,
                count=count,
                bound=report.bound,
                is_maximal=report.is_maximal,
                is_composition=report.is_composition,
                has_framing_cord=report.framing_cord is not None,
            )
        )
    return records


def census_records(
    n: int,
    threads: int = 1,
    cross_check_limit: int = DEFAULT_CROSS_CHECK_LIMIT,
    unsafe_large: bool = False,
) -> list[CensusRecord]:
    """Analyze every class; record order always matches the class order.

    ``threads`` above one fans the classes out over worker processes in
    fixed chunks, and the chunked results are concatenated in order, so the
    output is identical whatever the degree of parallelism.  The pool never
    has more workers than CPUs or chunks.
    """
    classes = enumerate_dow_classes(n, unsafe_large=unsafe_large)
    jobs = [w.letters for w in classes]
    # more workers than CPUs or chunks would only cost start-up time
    workers = min(threads, os.cpu_count() or 1)
    if workers <= 1:
        return _analyze_chunk((jobs, cross_check_limit))
    size = max(1, (len(jobs) + workers * 8 - 1) // (workers * 8))
    chunks = [jobs[k : k + size] for k in range(0, len(jobs), size)]
    with multiprocessing.Pool(processes=min(workers, len(chunks))) as pool:
        parts = pool.map(_analyze_chunk, [(chunk, cross_check_limit) for chunk in chunks])
    return [record for part in parts for record in part]


def summarize_records(n: int, records: list[CensusRecord]) -> CensusSummary:
    """Fold records into a summary, insisting on the structural theorems.

    A composition that tests maximal, or a framing cord present on exactly
    the wrong side of the composition split, would falsify the theory this
    package implements, so either raises immediately.  Bound violations and
    parity-versus-count disagreements are tallied in the summary instead,
    with the first few offending representatives; both stay zero on any
    correct run.
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
    counted = [r for r in records if r.count is not None]
    violating = [r.representative for r in counted if r.count > r.bound]
    disagreeing = [r.representative for r in counted if (r.count == r.bound) != r.is_maximal]
    return CensusSummary(
        n=n,
        total_classes=len(records),
        maximal_classes=maximal,
        bound_violations=len(violating),
        equivalence_failures=len(disagreeing),
        violating=tuple(violating[:OFFENDERS_KEPT]),
        disagreeing=tuple(disagreeing[:OFFENDERS_KEPT]),
    )


def run_census(
    n: int,
    threads: int = 1,
    cross_check_limit: int = DEFAULT_CROSS_CHECK_LIMIT,
    unsafe_large: bool = False,
) -> CensusSummary:
    records = census_records(
        n, threads=threads, cross_check_limit=cross_check_limit, unsafe_large=unsafe_large
    )
    return summarize_records(n, records)


def write_records_csv(records: list[CensusRecord], stream: TextIO) -> None:
    """One row per class; booleans spelled lowercase for easy ingestion."""
    writer = csv.writer(stream)
    writer.writerow(
        ["representative", "count", "bound", "is_maximal", "is_composition", "has_framing_cord"]
    )
    for r in records:
        writer.writerow(
            [
                render(r.representative),
                "" if r.count is None else r.count,
                r.bound,
                str(r.is_maximal).lower(),
                str(r.is_composition).lower(),
                str(r.has_framing_cord).lower(),
            ]
        )
