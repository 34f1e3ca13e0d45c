"""Exhaustive word generation, class lists, and census bookkeeping."""

from __future__ import annotations

import csv
import io

import pytest

import dowgraph as dg
from dowgraph.census import (
    CENSUS_LIMIT,
    census_records,
    enumerate_dow_classes,
    iter_canonical_words,
    run_census,
    summarize_records,
    write_records_csv,
)


# --------------------------------------------------------- raw generation

@pytest.mark.parametrize("n,raw", [(1, 1), (2, 3), (3, 15), (4, 105), (5, 945), (6, 10395)])
def test_raw_word_counts_are_odd_double_factorials(n, raw):
    assert sum(1 for _ in iter_canonical_words(n)) == raw


def test_generated_words_are_canonical_and_distinct():
    for n in (1, 2, 3, 4):
        words = list(iter_canonical_words(n))
        assert len(set(words)) == len(words)
        for w in words:
            assert w.n == n
            assert dg.canonicalize(w) == w


# ----------------------------------------------------------- class lists

def test_smallest_class_lists():
    assert [dg.render(w) for w in enumerate_dow_classes(1)] == ["11"]
    assert [dg.render(w) for w in enumerate_dow_classes(2)] == ["1122", "1212", "1221"]


def test_classes_are_sorted_self_representing_and_covering():
    for n in (2, 3, 4):
        classes = enumerate_dow_classes(n)
        assert classes == sorted(classes, key=lambda w: w.letters)
        reps = set(classes)
        assert len(reps) == len(classes)
        for w in classes:
            assert dg.class_representative(w) == w
        for w in iter_canonical_words(n):
            assert dg.class_representative(w) in reps


def _class_count(n: int) -> int:
    # words fixed by reversal-up-to-renaming satisfy
    #   r(n) = r(n-1) + (2n-2) r(n-2)
    # and Burnside gives ((2n-1)!! + r(n)) / 2 classes
    r = {0: 1, 1: 1}
    for k in range(2, n + 1):
        r[k] = r[k - 1] + (2 * k - 2) * r[k - 2]
    double_fact = 1
    for k in range(3, 2 * n, 2):
        double_fact *= k
    return (double_fact + r[n]) // 2


def test_class_totals_match_counting_formula(census_by_n):
    frozen = {1: 1, 2: 3, 3: 11, 4: 65, 5: 513, 6: 5363}
    for n in range(1, 7):
        assert len(census_by_n[n].classes) == frozen[n] == _class_count(n)


# ---------------------------------------------------------------- guard

def test_size_guard():
    assert CENSUS_LIMIT == 8
    with pytest.raises(dg.TooLargeError):
        enumerate_dow_classes(9)
    with pytest.raises(dg.TooLargeError):
        census_records(9)
    # the override flag skips the guard (checked on a small n to stay fast)
    assert len(enumerate_dow_classes(2, unsafe_large=True)) == 3


# --------------------------------------------------------------- records

def test_records_for_two_letters(census_by_n):
    records = census_by_n[2].records
    as_rows = [
        (dg.render(r.representative), r.count, r.bound, r.is_maximal, r.is_composition)
        for r in records
    ]
    assert as_rows == [
        ("1122", 2, 4, False, True),
        ("1212", 4, 4, True, False),
        ("1221", 3, 4, False, False),
    ]
    assert all(r.has_framing_cord != r.is_composition for r in records)


def test_batch_counts_match_per_word_counts(census_by_n):
    for n in range(1, 7):
        for r in census_by_n[n].records:
            assert r.count == dg.count_hamiltonian_sets(dg.build_graph(r.representative))


def test_worker_fanout_does_not_change_records():
    serial = census_records(4, threads=1)
    for threads in (2, 5):
        assert census_records(4, threads=threads) == serial


class _SerialPool:
    """Stands in for multiprocessing.Pool: records its size, maps in-process."""

    sizes: list[int] = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


@pytest.mark.parametrize("cpus,threads,expected", [
    (4, 2, 2),
    (4, 10000, 4),
    (64, 10000, 11),   # one chunk per class: n = 3 has 11 classes
    (None, 10000, None),
    (1, 10000, None),
])
def test_pool_size_is_bounded(monkeypatch, cpus, threads, expected):
    serial = census_records(3, threads=1)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(dg.census.multiprocessing, "Pool", _SerialPool)
    monkeypatch.setattr(dg.census.os, "cpu_count", lambda: cpus)
    assert census_records(3, threads=threads) == serial
    assert _SerialPool.sizes == ([] if expected is None else [expected])


# --------------------------------------------------------------- summary

def test_run_census_three_letters():
    summary = run_census(3)
    assert summary.n == 3
    assert summary.total_classes == 11
    assert summary.maximal_classes == (dg.tangled_cord(3),)
    assert summary.bound_violations == 0
    assert summary.equivalence_failures == 0


def test_summary_rejects_theorem_violations(census_by_n):
    from dowgraph.census import CensusRecord

    good = census_by_n[2].records
    poisoned = list(good)
    poisoned[0] = CensusRecord(
        representative=poisoned[0].representative,
        count=poisoned[0].count,
        bound=poisoned[0].bound,
        is_maximal=True,
        is_composition=True,
        has_framing_cord=False,
    )
    with pytest.raises(dg.InternalCheckError):
        summarize_records(2, poisoned)
    poisoned[0] = CensusRecord(
        representative=good[0].representative,
        count=good[0].count,
        bound=good[0].bound,
        is_maximal=False,
        is_composition=True,
        has_framing_cord=True,
    )
    with pytest.raises(dg.InternalCheckError):
        summarize_records(2, poisoned)


def test_summary_json_shape():
    blob = run_census(2).to_json_dict()
    assert blob == {
        "n": 2,
        "total_classes": 3,
        "maximal_classes": ["1212"],
        "bound_violations": 0,
        "equivalence_failures": 0,
    }


# ------------------------------------------------------------------- CSV

def test_csv_writer_roundtrip(census_by_n):
    records = census_by_n[2].records
    buffer = io.StringIO()
    write_records_csv(records, buffer)
    rows = list(csv.reader(io.StringIO(buffer.getvalue())))
    assert rows[0] == [
        "representative", "count", "bound", "is_maximal", "is_composition", "has_framing_cord",
    ]
    assert rows[1] == ["1122", "2", "4", "false", "true", "false"]
    assert len(rows) == 4


# ------------------------------------------------------- slow: n = 7 and 8

@pytest.mark.slow
def test_census_seven_reverifies_the_paper():
    records = census_records(7, threads=2)
    summary = summarize_records(7, records)
    assert summary.total_classes == len(records) == _class_count(7) == 68219
    assert summary.bound_violations == 0
    assert summary.equivalence_failures == 0
    assert all(r.count is not None for r in records)
    assert summary.maximal_classes == (dg.tangled_cord(7),)


@pytest.mark.slow
def test_census_eight_reverifies_the_paper():
    records = census_records(8, threads=2)
    summary = summarize_records(8, records)
    assert summary.total_classes == len(records) == _class_count(8) == 1016481
    assert summary.bound_violations == 0
    assert summary.equivalence_failures == 0
    assert summary.maximal_classes == (dg.tangled_cord(8),)
