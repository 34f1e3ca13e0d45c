"""Exhaustive word generation, class lists, and census bookkeeping."""

from __future__ import annotations

import csv
import hashlib
import io
import multiprocessing

import pytest

import dowgraph as dg
from dowgraph import census
from dowgraph.census import (
    CENSUS_LIMIT,
    census_records,
    enumerate_dow_classes,
    iter_canonical_words,
    run_census,
    summarize_records,
    write_records_csv,
)

from conftest import doctored


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


# ------------------------------------------------------ trie against oracle

def _oracle_classes(n: int) -> list[dg.Dow]:
    """The raw-word path: every canonical word, reversal dedupe, sort."""
    reps = [w for w in iter_canonical_words(n) if dg.class_representative(w) == w]
    return sorted(reps, key=lambda w: w.letters)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_trie_classes_match_the_raw_word_oracle(n):
    assert enumerate_dow_classes(n) == _oracle_classes(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_subtries_partition_the_classes_at_every_depth(n):
    classes = [w.letters for w in enumerate_dow_classes(n)]
    for depth in range(2 * n + 1):
        prefixes = sorted({w.letters[:depth] for w in iter_canonical_words(n)})
        parts = [census._trie_classes(n, prefix) for prefix in prefixes]
        assert [letters for part in parts for letters in part] == classes


@pytest.mark.parametrize("n", [1, 3, 5])
def test_task_prefixes_are_the_shallowest_level_big_enough(n):
    levels = [sorted({w.letters[:d] for w in iter_canonical_words(n)}) for d in range(2 * n + 1)]
    for at_least in (1, 2, 8, 16, 100, 10**6):
        prefixes = census._trie_prefixes(n, at_least)
        depth = len(prefixes[0])
        assert prefixes == levels[depth]
        assert len(prefixes) >= at_least or depth == 2 * n
        assert depth == 0 or len(levels[depth - 1]) < at_least


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
    with pytest.raises(dg.TooLargeError):
        census_records(9, threads=2)
    # the override flag skips the guard (checked on a small n to stay fast)
    assert len(enumerate_dow_classes(2, unsafe_large=True)) == 3


@pytest.mark.parametrize("n", [0, -1])
def test_fewer_than_one_letter_is_rejected(n):
    with pytest.raises(dg.InputError):
        enumerate_dow_classes(n)
    with pytest.raises(dg.InputError):
        iter_canonical_words(n)
    for threads in (1, 2):
        with pytest.raises(dg.InputError):
            census_records(n, threads=threads)


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: census_records("6"), "n must be an integer, got '6'", id="records-str"),
    pytest.param(lambda: census_records(2.5), "n must be an integer, got 2.5", id="records-float"),
    pytest.param(lambda: census_records(True), "n must be an integer, got True", id="records-bool"),
    pytest.param(lambda: census_records(9.5), "n must be an integer, got 9.5",
                 id="records-float-past-the-guard"),
    pytest.param(lambda: enumerate_dow_classes(2.5), "n must be an integer, got 2.5",
                 id="classes-float"),
    pytest.param(lambda: iter_canonical_words(2.5), "n must be an integer, got 2.5",
                 id="raw-words-float"),
    pytest.param(lambda: run_census(2.5), "n must be an integer, got 2.5", id="run-float"),
    pytest.param(lambda: run_census(True), "n must be an integer, got True", id="run-bool"),
    pytest.param(lambda: dg.tangled_cord("3"), "n must be an integer, got '3'", id="cord-str"),
    pytest.param(lambda: dg.tangled_cord(2.5), "n must be an integer, got 2.5", id="cord-float"),
    pytest.param(lambda: dg.fibonacci(2.5), "k must be an integer, got 2.5", id="fibonacci-float"),
    pytest.param(lambda: census_records(3, threads="2"), "threads must be an integer, got '2'",
                 id="threads-str"),
    pytest.param(lambda: census_records(3, threads=2.5), "threads must be an integer, got 2.5",
                 id="threads-float"),
    pytest.param(lambda: census_records(3, threads=True), "threads must be an integer, got True",
                 id="threads-bool"),
    pytest.param(lambda: census_records(3, threads=0), "threads must be at least 1",
                 id="threads-zero"),
    pytest.param(lambda: census_records(3, threads=-1), "threads must be at least 1",
                 id="threads-negative"),
    pytest.param(lambda: census_records(9, threads="2"), "threads must be an integer, got '2'",
                 id="threads-str-past-the-guard"),
    pytest.param(lambda: run_census(3, threads=0), "threads must be at least 1",
                 id="run-threads-zero"),
])
def test_sizes_that_are_not_positive_integers_are_input_errors(call, message):
    # one rule for every size argument, checked before the census size guard
    with pytest.raises(dg.InputError) as info:
        call()
    assert str(info.value) == message
    assert type(info.value) is dg.InputError


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


def test_records_agree_with_analyze(census_by_n):
    # the census runs analyze's verdict core without analyze; the report is
    # the oracle for every field the core decides
    for n in range(1, 7):
        for r in census_by_n[n].records:
            report = dg.analyze(r.representative)
            assert report.word == r.representative
            assert (r.count, r.bound, r.is_maximal, r.is_composition, r.has_framing_cord) == (
                report.count,
                report.bound,
                report.is_maximal,
                report.is_composition,
                report.framing_cord is not None,
            )


@pytest.mark.parametrize("helper,fault,message", [
    # every letter as the witness: only tc(4) projects to a tangled cord
    ("_even_split", lambda pairs: frozenset(pairs), "not a tangled cord"),
    # no composition anywhere, though 11223344 has no framing cord
    ("_composition_cut", lambda pairs: None, "disagree"),
    ("_frames", lambda letters, cord: False, "fails the framing check"),
], ids=["witness", "composition", "framing"])
def test_census_checks_still_fire(monkeypatch, helper, fault, message):
    monkeypatch.setattr(dg.maximality, helper, fault)
    with pytest.raises(dg.InternalCheckError, match=message):
        census_records(4)


def test_census_count_checks_still_fire(monkeypatch):
    # every count one too high: tc(4) passes the bound and so disagrees with
    # its parity verdict, as does every class one short of the bound
    bound = dg.fibonacci(9) - 1
    near = [r.representative for r in census_records(4) if r.count == bound - 1]
    assert near
    count = census._count
    monkeypatch.setattr(census, "_count", lambda classes: [c + 1 for c in count(classes)])
    summary = run_census(4)
    disagreeing = tuple(sorted([dg.tangled_cord(4), *near], key=lambda w: w.letters))
    assert summary.failures == (
        ("1 bound violation(s)", (dg.tangled_cord(4),)),
        (f"{len(disagreeing)} count/parity disagreement(s)", disagreeing),
    )
    assert (summary.bound_violations, summary.equivalence_failures) == (1, len(disagreeing))


def test_worker_fanout_does_not_change_records():
    serial = census_records(4, threads=1)
    for threads in (2, 5):
        assert census_records(4, threads=threads) == serial


def test_subtrie_rows_are_plain_values():
    rows = census._analyze_subtrie(3, (1, 2, 1))
    assert rows == [((1, 2, 1, 3, 2, 3), 12, True, False, True),
                    ((1, 2, 1, 3, 3, 2), 9, False, False, True)]


class _SerialPool:
    """Stands in for multiprocessing.Pool: records its size and its task
    count, and maps in process, starting no process."""

    sizes: list[int] = []
    tasks: list[int] = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def imap(self, fn, items):
        items = list(items)
        self.tasks.append(len(items))
        return map(fn, items)


@pytest.mark.parametrize("cpus,threads,expected", [
    (4, 2, 2),
    (4, 10000, 4),
    # 512 prefixes wanted, but n = 3 has only 15 words: one task per word,
    # so fewer tasks than CPUs
    (64, 10000, "tasks"),
    (None, 10000, None),
    (1, 10000, None),
])
def test_pool_size_is_bounded(monkeypatch, cpus, threads, expected):
    serial = census_records(3, threads=1)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(_SerialPool, "tasks", [])
    # census_records imports multiprocessing when it needs a pool
    monkeypatch.setattr(multiprocessing, "Pool", _SerialPool)
    # as on a platform that has no CPU affinity, where cpu_count is the count
    monkeypatch.delattr(dg.census.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(dg.census.os, "cpu_count", lambda: cpus)
    assert census_records(3, threads=threads) == serial
    if expected is None:
        assert _SerialPool.sizes == _SerialPool.tasks == []
        return
    [tasks] = _SerialPool.tasks
    assert _SerialPool.sizes == [min(threads, cpus, tasks)]
    if expected == "tasks":
        assert tasks == 15
        expected = tasks
    assert _SerialPool.sizes == [expected]


def test_pool_size_is_bounded_by_the_cpus_this_process_may_use(monkeypatch):
    # one usable CPU, whatever the host has: no pool is started
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    serial = census_records(4)
    monkeypatch.setattr(dg.census.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert census_records(4, threads=2) == serial


# --------------------------------------------------------------- summary

def test_run_census_three_letters():
    summary = run_census(3)
    assert summary.n == 3
    assert summary.total_classes == 11
    assert summary.maximal_classes == (dg.tangled_cord(3),)
    assert summary.bound_violations == 0
    assert summary.equivalence_failures == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_clean_census_has_no_failures(n):
    assert run_census(n).failures == ()


def _doctored_summary(census_by_n, doctor):
    """The summary of ``census 3``'s real records with ``doctor`` applied."""
    records = list(census_by_n[3].records)
    return summarize_records(3, doctor(records))


def _words(*texts):
    return tuple(dg.parse(t) for t in texts)


def test_summary_names_a_count_over_the_bound_and_a_false_maximal(census_by_n):
    def doctor(records):
        by_word = {dg.render(r.representative): k for k, r in enumerate(records)}
        over, odd = by_word["121332"], by_word["123123"]
        records[over] = doctored(records[over], count=records[over].bound + 1)
        records[odd] = doctored(records[odd], is_maximal=True)
        return records

    summary = _doctored_summary(census_by_n, doctor)
    assert (summary.bound_violations, summary.equivalence_failures) == (1, 1)
    assert summary.failures == (
        ("1 bound violation(s)", _words("121332")),
        ("1 count/parity disagreement(s)", _words("123123")),
        ("1 unexpected maximal class(es)", _words("123123")),
    )


def test_summary_names_a_missing_tangled_cord(census_by_n):
    summary = _doctored_summary(
        census_by_n, lambda records: [doctored(r, count=r.bound - 1, is_maximal=False)
                                      for r in records]
    )
    assert summary.maximal_classes == ()
    assert summary.failures == (("tangled cord not maximal", (dg.tangled_cord(3),)),)


def test_summary_keeps_the_first_few_of_many(census_by_n):
    summary = _doctored_summary(
        census_by_n, lambda records: [doctored(r, count=r.bound + 1) for r in records]
    )
    classes = tuple(enumerate_dow_classes(3))
    assert summary.failures == (
        ("11 bound violation(s)", classes[: census.OFFENDERS_KEPT]),
        # tc(3) is still maximal, but its count is off the bound now
        ("1 count/parity disagreement(s)", (dg.tangled_cord(3),)),
    )


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
    assert tuple(rows[0]) == dg.CensusRecord.__slots__
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
@pytest.mark.parametrize("threads", [1, 2])
def test_census_seven_csv_is_pinned(threads):
    # the bytes dowgraph census 7 --format csv writes
    buffer = io.StringIO()
    write_records_csv(census_records(7, threads=threads), buffer)
    digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    assert digest == "c05162d9e277e5651a99a92b1792a493912ae3563880792ad8229c5426dc2f49"


@pytest.mark.slow
def test_census_eight_reverifies_the_paper():
    records = census_records(8, threads=2)
    summary = summarize_records(8, records)
    assert summary.total_classes == len(records) == _class_count(8) == 1016481
    assert summary.bound_violations == 0
    assert summary.equivalence_failures == 0
    assert summary.maximal_classes == (dg.tangled_cord(8),)
