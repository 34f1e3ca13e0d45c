"""End-to-end command line checks, all through main()."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import dowgraph as dg
from dowgraph.cli import main
from dowgraph.words import _PIECE

from conftest import doctored


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------- analyze

# the exact bytes, so that a key moved or a value respelled shows; the last
# word has n = 11, above the cross-check limit of 10, so its count is null
ANALYZE_JSON = {
    "1122": """{
  "word": "1122",
  "n": 2,
  "count": 2,
  "bound": 4,
  "is_maximal": false,
  "failing_sigma": [
    1
  ],
  "is_composition": true,
  "framing_cord": null,
  "minimal_even_split": {
    "sigma": [
      1
    ],
    "projection": "11",
    "is_tangled_cord": true
  }
}
""",
    "1212": """{
  "word": "1212",
  "n": 2,
  "count": 4,
  "bound": 4,
  "is_maximal": true,
  "failing_sigma": null,
  "is_composition": false,
  "framing_cord": [
    1,
    2
  ],
  "minimal_even_split": null
}
""",
    "1 2 3 2 3 4 4 5 5 6 6 7 7 8 8 9 9 10 10 11 11 1": """{
  "word": "1 2 3 2 3 4 4 5 5 6 6 7 7 8 8 9 9 10 10 11 11 1",
  "n": 11,
  "count": null,
  "bound": 28656,
  "is_maximal": false,
  "failing_sigma": [
    1
  ],
  "is_composition": false,
  "framing_cord": [
    1
  ],
  "minimal_even_split": {
    "sigma": [
      1
    ],
    "projection": "11",
    "is_tangled_cord": true
  }
}
""",
}


def test_analyze_json_report(capsys):
    for word, expected in ANALYZE_JSON.items():
        code, out, err = run_cli(capsys, "analyze", *word.split(), "--format", "json")
        assert (code, out, err) == (0, expected, ""), word


def test_analyze_text_report(capsys):
    code, out, err = run_cli(capsys, "analyze", "1", "2", "1", "2")
    assert code == 0
    lines = out.splitlines()
    assert "word: 1212" in lines
    assert "count: 4" in lines
    assert "bound: 4" in lines
    assert "maximal: true" in lines
    assert "framing cord: 1 2" in lines


def test_analyze_can_skip_the_count(capsys):
    # tc(11) has n = 11, one above the cross-check limit
    code, out, _ = run_cli(capsys, "analyze", *dg.render(dg.tangled_cord(11)).split())
    assert code == 0
    assert "count: skipped" in out.splitlines()
    assert "maximal: true" in out.splitlines()


def test_analyze_has_no_cross_check_limit_option(capsys):
    # the limit is the fixed CROSS_CHECK_LIMIT, not an option
    with pytest.raises(SystemExit) as info:
        main(["analyze", "1212", "--cross-check-limit", "1"])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: dowgraph")
    assert "--cross-check-limit" in captured.err


def test_analyze_text_report_of_a_non_maximal_word(capsys):
    code, out, err = run_cli(capsys, "analyze", "1221")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "word: 1221",
        "n: 2",
        "count: 3",
        "bound: 4",
        "maximal: false",
        "failing letters: [1]",
        "composition: false",
        "framing cord: 1",
        "minimal even split: [1] projecting to 11",
    ]


def test_analyze_count_against_parity_is_exit_two(capsys, monkeypatch):
    monkeypatch.setattr("dowgraph.maximality.count_words", lambda words: [3])
    code, out, err = run_cli(capsys, "analyze", "1212")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "internal check failed: count 3 disagrees with the parity verdict on 1212"
    ]


# ------------------------------------------------------ count, enumerate

def test_count_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "count", "112323")
    assert (code, out) == (0, "7\n")
    code, out, _ = run_cli(capsys, "count", "112323", "--format", "json")
    assert (code, json.loads(out)) == (0, 7)
    # an int's JSON text is its decimal text, so the two are the same bytes
    assert out == "7\n"


def test_enumerate_text_lists_every_set(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "1212")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "000  [1][2]"
    masks = [line.split()[0] for line in lines]
    assert masks == ["000", "100", "010", "001"]


def test_enumerate_json_shape(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "11", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"mask": "0", "paths": [[1]]}]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_masks_are_the_edge_masks(capsys, fmt):
    word = "12132434"
    graph = dg.build_graph(dg.parse(word))
    expected = [
        dg.mask_to_bits(dg.edge_mask(graph, hs), graph.num_real_edges)
        for hs in dg.enumerate_hamiltonian_sets(graph)
    ]
    code, out, _ = run_cli(capsys, "enumerate", word, "--format", fmt)
    assert code == 0
    if fmt == "json":
        printed = [entry["mask"] for entry in json.loads(out)]
    else:
        printed = [line.split()[0] for line in out.splitlines()]
    assert printed == expected
    assert len(printed) == 33


def _old_enumerate_output(word, fmt):
    """What ``enumerate`` printed when it built the whole payload first."""
    graph = dg.build_graph(dg.parse(word))
    sets = dg.enumerate_hamiltonian_sets(graph)
    masks = [dg.mask_to_bits(dg.edge_mask(graph, hs), graph.num_real_edges) for hs in sets]
    if fmt == "json":
        payload = [
            # the paths are vertex-disjoint, so their vertex lists order them
            {"mask": mask, "paths": sorted(list(p.vertices) for p in hs)}
            for mask, hs in zip(masks, sets)
        ]
        return json.dumps(payload, indent=2) + "\n"
    return "".join(f"{mask}  {dg.format_hamiltonian_set(hs)}\n" for mask, hs in zip(masks, sets))


# the benchmark's reference table, read and never written: the census 6 CSV
# sha256, and the enumerate JSON sha256 per pool word
_BENCH_REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text()
)
_REFERENCE = _BENCH_REFERENCE["enumerate"]
_POOL = [
    entry for n in ("9", "10") for entry in [_REFERENCE["tangled"][n], *_REFERENCE["random"][n]]
]

_WRITER_WORDS = (
    [dg.render(w) for n in range(1, 5) for w in dg.enumerate_dow_classes(n)]
    + [dg.render(dg.tangled_cord(6)), "7 3 9 7 12 3 9 5 12 40 5 2 40 2"]
    # two random n = 9 words of the pool; text has no reference bytes
    + [" ".join(map(str, entry["word"])) for entry in _REFERENCE["random"]["9"][:2]]
)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_writer_matches_the_payload_layout(capsys, tmp_path, fmt):
    target = tmp_path / "sets.out"
    for word in _WRITER_WORDS:
        expected = _old_enumerate_output(word, fmt)
        code, out, err = run_cli(capsys, "enumerate", *word.split(), "--format", fmt)
        assert (code, out, err) == (0, expected, ""), word
        code, out, _ = run_cli(capsys, "enumerate", *word.split(), "--format", fmt,
                               "--output", str(target))
        assert (code, out) == (0, "")
        assert target.read_bytes() == expected.encode(), word


@pytest.mark.parametrize("entry", _POOL, ids=lambda e: dg.render(dg.Dow(tuple(e["word"]))))
def test_enumerate_json_matches_the_benchmark_reference(capsys, entry):
    code, out, err = run_cli(capsys, "enumerate", *map(str, entry["word"]), "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == entry["sha256"]


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


class _Recording(io.TextIOBase):
    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_writes_in_blocks(fmt):
    # an unbuffered stdout makes each write a system call; tc(9)'s 4,180
    # sets, and the closing bracket in JSON, go out 256 at a time
    word = dg.render(dg.tangled_cord(9))
    sink = _Recording()
    with contextlib.redirect_stdout(sink):
        code = main(["enumerate", word, "--format", fmt])
    assert code == 0
    assert len(sink.parts) == 17
    assert "".join(sink.parts) == _old_enumerate_output(word, fmt)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_streams_in_bounded_memory(fmt):
    # tc(9) has 4,180 sets; holding them, or their text, takes megabytes
    word = dg.render(dg.tangled_cord(9))
    with contextlib.redirect_stdout(_Discard()):
        tracemalloc.start()
        try:
            code = main(["enumerate", word, "--format", fmt])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20


def _census_csv_by_row(records):
    """The census CSV as ``csv.writer`` writes it, one row at a time."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(dg.CensusRecord.__slots__)
    for r in records:
        writer.writerow((dg.render(r.representative), r.count, r.bound, str(r.is_maximal).lower(),
                         str(r.is_composition).lower(), str(r.has_framing_cord).lower()))
    return buffer.getvalue()


def test_census_csv_writes_in_blocks(census_by_n):
    # the header and 5,363 rows go out 256 lines at a time, not one write a row
    sink = _Recording()
    with contextlib.redirect_stdout(sink):
        code = main(["census", "6", "--format", "csv"])
    assert code == 0
    assert len(sink.parts) == 21
    assert "".join(sink.parts) == _census_csv_by_row(census_by_n[6].records)


def test_census_csv_matches_csv_writer_on_wide_and_doctored_records(census_by_n):
    # letters past 9 render with spaces, which csv.writer leaves unquoted
    records = [
        dg.CensusRecord(dg.tangled_cord(12), 7, 8, True, False, True),
        *(doctored(r, count=r.bound + 1, is_maximal=not r.is_maximal)
          for r in census_by_n[3].records),
    ]
    buffer = io.StringIO()
    dg.write_records_csv(records, buffer)
    assert buffer.getvalue() == _census_csv_by_row(records)
    assert buffer.getvalue().splitlines()[1].startswith("1 2 1 3 2 4 3 5 4 6 ")


def test_census_csv_buffer_stays_bounded(census_by_n):
    # the census 6 CSV is about 150 kB; the writer holds one block of it
    records = census_by_n[6].records
    tracemalloc.start()
    try:
        dg.write_records_csv(records, _Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(_census_csv_by_row(records)) > 1 << 17
    assert peak < 1 << 16


# ------------------------------------------------------------------- tc

def test_tc_prints_the_word(capsys):
    code, out, _ = run_cli(capsys, "tc", "4")
    assert (code, out) == (0, "12132434\n")
    code, out, _ = run_cli(capsys, "tc", "4", "--format", "json")
    assert json.loads(out) == "12132434"


def test_tc_rejects_nonpositive_n(capsys, tmp_path):
    code, _, err = run_cli(capsys, "tc", "0")
    assert code == 1
    assert "error" in err
    # before the output file is opened
    target = tmp_path / "tc0"
    code, out, err = run_cli(capsys, "tc", "0", "--output", str(target))
    assert (code, out, err) == (1, "", "error: n must be at least 1\n")
    assert not target.exists()


@pytest.mark.parametrize("n", [1, 2, 3, 9, 10, 11, _PIECE, _PIECE + 1, _PIECE + 2, _PIECE + 3,
                               2 * _PIECE + 1, 2 * _PIECE + 2, 12345])
def test_tc_is_the_rendered_cord_across_pieces(capsys, n):
    # the cord is written a piece at a time; the seams must not show
    word = dg.render(dg.tangled_cord(n))
    assert run_cli(capsys, "tc", str(n)) == (0, word + "\n", "")
    assert run_cli(capsys, "tc", str(n), "--format", "json") == (0, json.dumps(word) + "\n", "")


def test_tc_writes_in_bounded_memory(tmp_path):
    # 200,000 letter pairs make 2.6 MB of text; a writer that holds the
    # whole cord, or its text, peaks far above 1 MiB
    target = tmp_path / "tc.out"
    tracemalloc.start()
    try:
        code = main(["tc", "200000", "--output", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20
    # built here, not through tangled_cord, whose letters stay cached
    assert target.read_text() == " ".join(map(str, dg.cord_pattern(range(1, 200001)))) + "\n"


# --------------------------------------------------------------- census

def test_census_text_summary(capsys):
    code, out, err = run_cli(capsys, "census", "3")
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "n: 3",
        "classes: 11",
        "maximal: 121323",
        "bound_violations: 0",
        "equivalence_failures: 0",
    ]


def test_census_csv_rows(capsys):
    code, out, _ = run_cli(capsys, "census", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("representative,")
    assert lines[1] == "1122,2,4,false,true,false"


def test_census_json_summary(capsys):
    code, out, _ = run_cli(capsys, "census", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 2,
        "total_classes": 3,
        "maximal_classes": ["1212"],
        "bound_violations": 0,
        "equivalence_failures": 0,
    }


def test_census_with_worker_processes(capsys):
    serial = run_cli(capsys, "census", "3", "--format", "csv")
    fanned = run_cli(capsys, "census", "3", "--format", "csv", "--threads", "2")
    assert serial == fanned
    assert serial[0] == 0


@pytest.mark.parametrize("threads", ["1", "2"])
def test_census_csv_matches_the_benchmark_reference(capsys, threads):
    code, out, err = run_cli(capsys, "census", "6", "--format", "csv", "--threads", threads)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _BENCH_REFERENCE["census"]["csv_sha256"]


def _doctored_census(monkeypatch, doctor):
    """Make ``census 3`` see its real records with ``doctor`` applied."""
    records = doctor(list(dg.census_records(3)))
    monkeypatch.setattr("dowgraph.cli.census_records", lambda *args, **kwargs: records)
    return records


CENSUS_3_TEXT = (
    "n: 3\nclasses: 11\nmaximal: 121323\nbound_violations: 0\nequivalence_failures: 0\n"
)


def test_clean_census_names_no_words(capsys, monkeypatch):
    _doctored_census(monkeypatch, lambda records: records)
    assert run_cli(capsys, "census", "3") == (0, CENSUS_3_TEXT, "")


def test_failed_census_names_the_offending_words(capsys, monkeypatch, tmp_path):
    def doctor(records):
        by_word = {dg.render(r.representative): k for k, r in enumerate(records)}
        over, odd = by_word["121332"], by_word["123123"]
        # one count above the bound, one non-composition class called maximal
        records[over] = doctored(records[over], count=records[over].bound + 1)
        records[odd] = doctored(records[odd], is_maximal=True)
        return records

    records = _doctored_census(monkeypatch, doctor)
    code, out, err = run_cli(capsys, "census", "3", "--format", "csv")
    assert code == 2
    buffer = io.StringIO()
    dg.write_records_csv(records, buffer)
    assert out == buffer.getvalue()
    assert err.splitlines() == [
        "internal check failed: census verification did not come out clean",
        "  1 bound violation(s): 121332",
        "  1 count/parity disagreement(s): 123123",
        "  1 unexpected maximal class(es): 123123",
    ]
    # the same through --output: the whole CSV is written, then the check fails
    target = tmp_path / "census.csv"
    assert run_cli(capsys, "census", "3", "--format", "csv", "--output", str(target)) == (
        2, "", err)
    assert target.read_bytes() == out.encode()


def test_failed_census_names_a_missing_tangled_cord(capsys, monkeypatch):
    def doctor(records):
        return [doctored(r, count=r.bound - 1, is_maximal=False) for r in records]

    _doctored_census(monkeypatch, doctor)
    code, out, err = run_cli(capsys, "census", "3")
    assert code == 2
    assert out == CENSUS_3_TEXT.replace("maximal: 121323", "maximal: ")
    assert err.splitlines()[1:] == ["  tangled cord not maximal: 121323"]


def test_failed_census_keeps_the_first_few_of_many(capsys, monkeypatch):
    _doctored_census(monkeypatch, lambda records: [doctored(r, count=r.bound + 1) for r in records])
    code, _, err = run_cli(capsys, "census", "3")
    assert code == 2
    violations = err.splitlines()[1].split(": ")
    assert violations[0] == "  11 bound violation(s)"
    words = [dg.render(w) for w in dg.enumerate_dow_classes(3)]
    assert violations[1].split() == words[: dg.census.OFFENDERS_KEPT]


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_census_rejects_fewer_than_one_thread(capsys, threads):
    with pytest.raises(SystemExit) as info:
        main(["census", "2", "--threads", threads])
    assert info.value.code == 1
    assert "--threads" in capsys.readouterr().err


def test_census_rejects_a_non_integer_thread_count(capsys):
    with pytest.raises(SystemExit) as info:
        main(["census", "3", "--threads", "abc"])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: dowgraph census")
    assert "invalid int value: 'abc'" in captured.err


def test_census_has_no_cross_check_limit(capsys):
    # a census always counts every class
    with pytest.raises(SystemExit) as info:
        main(["census", "3", "--cross-check-limit", "2"])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert "--cross-check-limit" in captured.err


def test_census_size_guard_maps_to_exit_one(capsys):
    code, out, err = run_cli(capsys, "census", "9")
    assert code == 1
    assert out == ""
    assert "error" in err


# -------------------------------------------------------------- framing

def test_framing_cord_output(capsys):
    code, out, _ = run_cli(capsys, "framing", "123415264536")
    assert (code, out) == (0, "1 3 6\n")


def test_framing_reports_the_split(capsys):
    code, out, _ = run_cli(capsys, "framing", "1122")
    assert (code, out) == (0, "no framing cord: the word splits as (11)(22)\n")
    code, out, _ = run_cli(capsys, "framing", "1122", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "word": "1122",
        "framing_cord": None,
        "composition": ["11", "22"],
    }


def test_framing_internal_check_is_exit_two(capsys, monkeypatch):
    def broken(word):
        raise dg.InternalCheckError("framing cord went astray")

    monkeypatch.setattr("dowgraph.cli.find_framing_cord", broken)
    code, out, err = run_cli(capsys, "framing", "1212")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["internal check failed: framing cord went astray"]


# ----------------------------------------------------------- export-dot

def test_export_dot_emits_graph_text(capsys):
    code, out, _ = run_cli(capsys, "export-dot", "1212")
    assert code == 0
    assert out.startswith("graph assembly {")
    assert out.rstrip().endswith("}")


# ------------------------------------------------------- output plumbing

def test_output_flag_writes_a_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", "1212", "--format", "json",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["word"] == "1212"


@pytest.mark.parametrize("argv", [
    ["analyze", "1212"],
    ["count", "11"],
    ["enumerate", "1212"],
    ["tc", "3"],
    ["census", "2"],
    ["framing", "1212"],
    ["export-dot", "1212"],
])
def test_unwritable_output_is_exit_one(capsys, tmp_path, argv):
    target = tmp_path / "no-such-directory" / "out"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["tc", "3"],
    ["census", "4", "--format", "csv"],
    ["enumerate", dg.render(dg.tangled_cord(9)), "--format", "json"],
])
def test_a_failed_write_to_the_output_file_is_exit_one(capsys, argv):
    # /dev/full opens, but every write to it fails with ENOSPC
    code, out, err = run_cli(capsys, *argv, "--output", "/dev/full")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: cannot write /dev/full: No space left on device"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["tc", "3"], ["census", "4", "--format", "csv"], ["--help"],
                                  ["census", "--help"]])
def test_a_failed_write_to_stdout_is_exit_one(argv, unbuffered):
    # a buffered stdout fails only when it is flushed, an unbuffered one at
    # the first write; either way the interpreter's own flush at exit must
    # not fail again.  argparse writes the help itself, and would ignore
    # the failure.
    src = os.path.dirname(os.path.dirname(os.path.abspath(dg.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "dowgraph.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: cannot write stdout: No space left on device"]


def test_closed_stdout_pipe_exits_quietly():
    # 10,945 lines, far more than a pipe buffers, so the writer meets the
    # closed pipe; this is `dowgraph enumerate ... | head -1`
    src = os.path.dirname(os.path.dirname(os.path.abspath(dg.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    word = dg.render(dg.tangled_cord(10))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dowgraph.cli", "enumerate", word],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    err = proc.stderr.read()
    proc.stderr.close()
    assert first.startswith(b"0000000000000000000  [1][2]")
    assert err == b""


def test_enumerate_refuses_a_word_too_long_to_search(tmp_path):
    # 1 1 2 2 ... 520 520 is a legal word, but the search recurses once per
    # edge; it is refused before the output file is opened
    src = os.path.dirname(os.path.dirname(os.path.abspath(dg.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    word = [str(k) for k in range(1, 521) for _ in (0, 1)]
    target = tmp_path / "sets.out"
    proc = subprocess.run(
        [sys.executable, "-m", "dowgraph.cli", "enumerate", *word, "--output", str(target)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == [
        f"error: enumeration is capped at n = {dg.ENUMERATE_LIMIT} letters; "
        "this word has n = 520"
    ]
    assert not target.exists()


# ------------------------------------------------------------ exit codes

def test_bad_word_is_exit_one(capsys):
    code, out, err = run_cli(capsys, "count", "123")
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("word", ["1 ² 1 ²", "1²1²"])
def test_non_ascii_digit_is_exit_one(capsys, word):
    code, out, err = run_cli(capsys, "count", word)
    assert code == 1
    assert out == ""
    assert "error" in err


def test_usage_problems_are_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["census", "2", "--format", "yaml"])
    assert info.value.code == 1
    capsys.readouterr()


COMMAND_OPTIONS = {
    "analyze": ["word", "--format", "--output"],
    "count": ["word", "--format", "--output"],
    "enumerate": ["word", "--format", "--output"],
    "tc": ["n", "--format", "--output"],
    "census": ["n", "--format", "--output", "--threads", "--unsafe-large"],
    "framing": ["word", "--format", "--output"],
    "export-dot": ["word", "--format", "--output"],
}


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: dowgraph ")
    assert "{" + ",".join(COMMAND_OPTIONS) + "}" in out


@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
def test_command_help_lists_its_options(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(f"usage: dowgraph {command} ")
    listed = set(captured.out.split())
    positional, *options = COMMAND_OPTIONS[command]
    assert positional in listed
    assert {token for token in listed if token.startswith("--")} == {"--help", *options}
