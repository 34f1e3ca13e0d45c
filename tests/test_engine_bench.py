"""The in-process engine benchmark, tools/engine_bench.py, run small."""

from __future__ import annotations

import hashlib
import io
import json
import pathlib
import subprocess
import sys

import dowgraph as dg

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "tools" / "engine_bench.py"


def _run(output: pathlib.Path, label: str) -> None:
    subprocess.run([sys.executable, str(SCRIPT), "--n", "4", "--runs", "1", "--label", label,
                    "--output", str(output)], check=True, capture_output=True, timeout=120)


def test_engine_bench_appends_a_checked_entry(tmp_path):
    output = tmp_path / "BENCH_engine.json"
    _run(output, "first")
    _run(output, "second")
    entries = json.loads(output.read_text())
    assert [e["label"] for e in entries] == ["first", "second"]
    entry = entries[0]
    assert (entry["n"], entry["runs"]) == (4, 1)
    assert {"commit", "python", "platform", "nproc"} <= entry.keys()
    assert list(entry["workloads"]) == ["census_records", "count_words", "write_records_csv",
                                        "enumerate_dow_classes", "even_split_witness"]
    for result in entry["workloads"].values():
        (value,) = result["values_s"]
        assert result["median_s"] == result["q1_s"] == result["q3_s"] == value > 0
    # the digests are those of the library's own outputs
    records = dg.census_records(4)
    stream = io.StringIO()
    dg.write_records_csv(records, stream)
    csv_digest = hashlib.sha256(stream.getvalue().encode()).hexdigest()
    counts = dg.count_words([r.representative for r in records])
    count_digest = hashlib.sha256(repr(counts).encode()).hexdigest()
    classes = dg.enumerate_dow_classes(4)
    class_digest = hashlib.sha256(repr([w.letters for w in classes]).encode()).hexdigest()
    witnesses = [dg.even_split_witness(w) for w in classes]
    witness_digest = hashlib.sha256(
        repr([None if s is None else sorted(s) for s in witnesses]).encode()).hexdigest()
    assert entry["workloads"]["write_records_csv"]["sha256"] == csv_digest
    assert entry["workloads"]["count_words"]["sha256"] == count_digest
    assert entry["workloads"]["enumerate_dow_classes"]["sha256"] == class_digest
    assert entry["workloads"]["even_split_witness"]["sha256"] == witness_digest
    assert entries[1]["workloads"]["census_records"]["sha256"] == \
        entry["workloads"]["census_records"]["sha256"]
