"""Shared strategies and the cached small-n census used across test modules."""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

import dowgraph as dg


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow", action="store_true", default=False, help="also run the tests marked slow"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow; run with --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@st.composite
def dows(draw, min_n: int = 1, max_n: int = 5):
    """A random double occurrence word with canonical letters 1..n."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    letters = [a for a in range(1, n + 1) for _ in (0, 1)]
    return dg.Dow(tuple(draw(st.permutations(letters))))


@st.composite
def renamed_dows(draw, min_n: int = 1, max_n: int = 5, max_letter: int = 99):
    """A word together with a renamed copy of it (same class, wild letters)."""
    word = draw(dows(min_n=min_n, max_n=max_n))
    alphabet = sorted(word.alphabet)
    image = draw(
        st.lists(
            st.integers(min_value=1, max_value=max_letter),
            min_size=len(alphabet),
            max_size=len(alphabet),
            unique=True,
        )
    )
    mapping = dict(zip(alphabet, image))
    return word, dg.Dow(tuple(mapping[a] for a in word.letters))


def doctored(record: dg.CensusRecord, *, count: int | None = None,
             is_maximal: bool | None = None) -> dg.CensusRecord:
    """A copy of a census record with its count or its verdict replaced."""
    return dg.CensusRecord(
        representative=record.representative,
        count=record.count if count is None else count,
        bound=record.bound,
        is_maximal=record.is_maximal if is_maximal is None else is_maximal,
        is_composition=record.is_composition,
        has_framing_cord=record.has_framing_cord,
    )


@dataclass(frozen=True)
class CensusData:
    classes: list[dg.Dow]
    records: list[dg.CensusRecord]
    summary: dg.CensusSummary
    seconds: float


@pytest.fixture(scope="session")
def census_by_n() -> dict[int, CensusData]:
    """Single-threaded census for every n up to 6, computed once per run."""
    out: dict[int, CensusData] = {}
    for n in range(1, 7):
        started = time.perf_counter()
        records = dg.census_records(n, threads=1)
        elapsed = time.perf_counter() - started
        summary = dg.summarize_records(n, records)
        out[n] = CensusData(
            classes=[r.representative for r in records],
            records=records,
            summary=summary,
            seconds=elapsed,
        )
    return out
