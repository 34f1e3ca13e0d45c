"""Time the census engine in process and append the timings to BENCH_engine.json.

Run from a checkout (Python 3.10+, nothing to install):

    python tools/engine_bench.py --n 6 --runs 15 --label "what this entry measures"

It imports the ``dowgraph`` package of the checkout it sits in, from that
checkout's ``src/``, and times six library calls.  After one untimed call
of each, it runs ``--runs`` rounds, and each round calls every one once, in
the order below, so a burst of load from elsewhere falls on all six alike:

- ``census_records``: ``census_records(n)`` in one process;
- ``count_words``: one ``count_words`` batch over the census-n classes;
- ``write_records_csv``: the census-n records written to a string;
- ``enumerate_dow_classes``: ``enumerate_dow_classes(n)``, the trie walk
  with its reversal test;
- ``even_split_witness``: the parity witness of each census-n class;
- ``witness_family``: the parity witness of the tangled cords with 24, 36
  and 48 letters whose middle third of positions is reversed, words on which
  a search by subset size turns exponential.

Every run of a call must give the same output, whose sha256 the entry keeps:
of the records' fields, of the counts, of the CSV text, of the classes'
letters and of each witness call's witnesses (each sorted, or None).  Two
entries with the same n and digests timed the same work.

The entry goes at the end of the JSON list in ``--output`` (by default
``BENCH_engine.json`` at the checkout root): its label, the commit (``git
describe --always --dirty``, or ``--commit``), Python, the platform, the
CPU count, n, the number of runs, and for each call the median and
quartiles of its times in seconds, with every time.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import dowgraph as dg  # noqa: E402


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def block_reversed(n: int) -> dg.Dow:
    """The tangled cord with n letters, the middle third of its positions
    (``[2n//3 : 4n//3]``) read backwards, canonicalized."""
    letters = list(dg.tangled_cord(n).letters)
    letters[2 * n // 3:4 * n // 3] = letters[2 * n // 3:4 * n // 3][::-1]
    return dg.canonicalize(dg.Dow(letters))


def _witnesses(words: list) -> str:
    return _sha256(repr([None if s is None else sorted(s)
                         for s in map(dg.even_split_witness, words)]))


def _workloads(n: int) -> dict:
    """Each call's name mapped to a function that runs it once and returns
    the digest of its output."""
    records = dg.census_records(n)
    classes = [r.representative for r in records]
    family = [block_reversed(size) for size in (24, 36, 48)]

    def census() -> str:
        rows = [(r.representative.letters, r.count, r.bound, r.is_maximal, r.is_composition,
                 r.has_framing_cord) for r in dg.census_records(n)]
        return _sha256(repr(rows))

    def count() -> str:
        return _sha256(repr(dg.count_words(classes)))

    def write() -> str:
        stream = io.StringIO()
        dg.write_records_csv(records, stream)
        return _sha256(stream.getvalue())

    def trie() -> str:
        return _sha256(repr([w.letters for w in dg.enumerate_dow_classes(n)]))

    return {"census_records": census, "count_words": count, "write_records_csv": write,
            "enumerate_dow_classes": trie, "even_split_witness": lambda: _witnesses(classes),
            "witness_family": lambda: _witnesses(family)}


def _time(workloads: dict, runs: int) -> dict:
    digests = {name: call() for name, call in workloads.items()}
    values = {name: [] for name in workloads}
    for _ in range(runs):
        for name, call in workloads.items():
            start = time.perf_counter()
            again = call()
            values[name].append(time.perf_counter() - start)
            if again != digests[name]:
                raise SystemExit(f"error: {name} gave a different output on a later run")
    results = {}
    for name, times in values.items():
        q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive") if runs > 1 else times * 3
        results[name] = {"median_s": statistics.median(times), "q1_s": q1, "q3_s": q3,
                         "values_s": times, "sha256": digests[name]}
    return results


def _commit() -> str:
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=6, help="letters per census word")
    parser.add_argument("--runs", type=int, default=15, help="timed runs of each call")
    parser.add_argument("--label", required=True, help="what this entry measures")
    parser.add_argument("--commit", help="the commit timed; by default git describe's")
    parser.add_argument("--output", type=Path, default=ROOT / "BENCH_engine.json")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    entry = {
        "label": args.label,
        "commit": args.commit or _commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        # what nproc prints: the CPUs this process may run on
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "n": args.n,
        "runs": args.runs,
        "workloads": _time(_workloads(args.n), args.runs),
    }
    entries = json.loads(args.output.read_text()) if args.output.exists() else []
    entries.append(entry)
    args.output.write_text(json.dumps(entries, indent=2) + "\n")
    for name, result in entry["workloads"].items():
        print(f"{name}: median {result['median_s'] * 1e3:.1f} ms "
              f"(quartiles {result['q1_s'] * 1e3:.1f}-{result['q3_s'] * 1e3:.1f} ms)")


if __name__ == "__main__":
    main()
