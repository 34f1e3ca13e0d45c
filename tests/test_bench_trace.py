"""The benchmark's in-process tracer still runs one call of each workload.

``bench/spans.py`` wraps package functions by name; if a change removes or
renames one of them, a traced call fails here instead of in a traced
benchmark run.  The test reads ``bench/`` and writes nothing there.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

import dowgraph as dg
import dowgraph.cli  # noqa: F401  (the traced entry point)

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import spans as module

    yield module
    # spans imports workloads; keep both out of sys.modules afterwards
    for name in ("spans", "workloads"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "1212"],
        ["analyze", "1212", "--format", "json"],
        ["enumerate", "1212", "--format", "json"],
        ["census", "3", "--format", "csv", "--threads", "1"],
        # the census workload also runs at 2 processes, where the tracer
        # relies on census_records being the call that starts the workers
        ["census", "3", "--format", "csv", "--threads", "2"],
    ],
    ids=["count", "analyze", "enumerate", "census", "census-2p"],
)
def test_traced_call_matches_the_untraced_one(spans, argv):
    status, plain, _ = spans.call_in_process(dg, argv)
    assert status == 0
    tracer = spans.Tracer()
    status, traced, _ = spans.call_in_process(dg, argv, tracer)
    assert status == 0
    assert traced == plain
    assert len(tracer.spans) > 1  # the root span and at least one layer
