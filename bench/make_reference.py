"""Write ``bench/reference.json``: the word pools and their expected outputs.

Run from the repository root at the commit whose outputs are the reference
(it takes about a quarter of an hour on one core of a 2-core VM):

    python3 bench/make_reference.py

Counts and enumerations of random words have no closed form, so the
benchmark draws those words from fixed pools and checks the CLI against
the answers recorded here.  The census CSV and every enumeration are
checked byte for byte through their sha256.
"""

from __future__ import annotations

import json
import os
import random
import statistics

import workloads as wl
from run import HERE, check_working_tree, invoke

POOL_SEED = 20260307
POOL_SIZE = 10
PILOT = 9
BAND = 0.03


def run_cli(argv: list[str]) -> bytes:
    outcome = invoke(argv)
    if outcome.status != 0:
        raise SystemExit(f"{' '.join(argv)} failed: {outcome.stderr.decode()}")
    return outcome.stdout


def count(word) -> dict:
    return {"word": list(word), "count": int(run_cli(["count", *map(str, word)]))}


def enumeration(word) -> dict:
    stdout = run_cli(["enumerate", "--format", "json", *map(str, word)])
    return {"word": list(word), "count": len(json.loads(stdout)), "sha256": wl.sha256(stdout)}


def typical_words(n: int, rng: random.Random, measure) -> list[dict]:
    """``POOL_SIZE`` random words whose count lies within ``BAND`` of the
    median count of the first ``PILOT`` draws.

    A run draws only a few words from each pool, and a word's count sets
    how long the mask scan spends on it and how long its enumeration is, so
    the band keeps one seed's round about as costly as another's.
    """
    drawn: list[dict] = []
    seen: set[tuple[int, ...]] = set()
    pool: list[dict] = []
    target = None
    while len(pool) < POOL_SIZE:
        letters = list(range(1, n + 1)) * 2
        rng.shuffle(letters)
        word = wl.canonical(letters)
        if word in seen:
            continue
        seen.add(word)
        drawn.append(measure(word))
        if len(drawn) == PILOT:
            target = statistics.median(e["count"] for e in drawn)
            candidates = drawn
        elif target is None:
            continue
        else:
            candidates = drawn[-1:]
        pool += [e for e in candidates if abs(e["count"] / target - 1) <= BAND]
    return pool[:POOL_SIZE]


def main() -> None:
    check_working_tree()
    rng = random.Random(POOL_SEED)
    census = run_cli(
        ["census", str(wl.CENSUS_N), "--format", "csv", "--threads", "1"]
    )
    reference = {
        "pool_seed": POOL_SEED,
        "census": {"csv_sha256": wl.sha256(census)},
        "count": {
            "interleaved": {str(n): count(wl.interleaved(n))["count"] for n in wl.COUNT_NS},
            "random": {str(n): typical_words(n, rng, count) for n in wl.COUNT_NS},
        },
        "enumerate": {
            "tangled": {str(n): enumeration(wl.tangled_cord(n)) for n in wl.ENUMERATE_NS},
            "random": {str(n): typical_words(n, rng, enumeration) for n in wl.ENUMERATE_NS},
        },
    }
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
