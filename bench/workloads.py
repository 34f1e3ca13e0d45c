"""Workload inputs, their properties, and the checks on every CLI output.

Each workload is a fixed *round*: a list of CLI invocations built from the
seed.  The benchmark repeats the round, so every round does the same work
and round times can be compared.  Costs must not depend much on the seed
(the spread across seeds is part of the benchmark's noise), so the seed
picks words of the same shape: it relabels letters, reverses words and
draws the random words, but it never changes ``n`` or a composition's split.

Expected answers never come from the program under test at run time.  They
are closed forms (tangled-cord counts), structural facts checked by code in
this file (maximality, witness size, composition), or the reference table
``reference.json`` that ``make_reference.py`` wrote from an earlier commit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from itertools import combinations

WORKLOADS = ("census", "count", "analyze", "enumerate")

CENSUS_N = 6
CENSUS_CLASSES = 5363
COUNT_NS = (12, 13, 14)
ANALYZE_NS = (15, 16, 17, 18, 19)
ANALYZE_RANDOM_NS = (16, 40)
ANALYZE_RANDOM_PER_ROUND = 10
ENUMERATE_NS = (9, 10)
ENUMERATE_RANDOM_PER_N = 3
# the witness of a random analyze word must be this small, so that the
# family stays the "witness found at once" case the workload is about
RANDOM_WITNESS_CAP = 3


# ---------------------------------------------------------------------------
# word facts, written independently of the package under test


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def tangled_cord(n: int) -> tuple[int, ...]:
    if n == 1:
        return (1, 1)
    out = [1, 2, 1]
    for k in range(3, n + 1):
        out += [k, k - 1]
    out.append(n)
    return tuple(out)


def interleaved(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1)) * 2


def canonical(word) -> tuple[int, ...]:
    names: dict[int, int] = {}
    return tuple(names.setdefault(a, len(names) + 1) for a in word)


def render(word) -> str:
    if max(word) <= 9:
        return "".join(map(str, word))
    return " ".join(map(str, word))


def cut_width(word) -> int:
    """Largest number of letters open at once between two positions."""
    open_letters: set[int] = set()
    width = 0
    for a in word:
        open_letters ^= {a}
        width = max(width, len(open_letters))
    return width


def is_composition(word) -> bool:
    open_letters: set[int] = set()
    for a in word[:-1]:
        open_letters ^= {a}
        if not open_letters:
            return True
    return False


def leaves_even_pieces(word, sigma) -> bool:
    """Does deleting ``sigma`` leave only even-length runs?"""
    run = 0
    for a in word:
        if a in sigma:
            if run % 2:
                return False
            run = 0
        else:
            run += 1
    return run % 2 == 0


def smallest_even_split_size(word, cap: int) -> int | None:
    """Size of the smallest letter set whose deletion leaves even runs,
    searched up to ``cap`` letters; None when none is that small."""
    letters = sorted(set(word))
    for size in range(1, min(cap, len(letters) - 1) + 1):
        for sigma in combinations(letters, size):
            if leaves_even_pieces(word, set(sigma)):
                return size
    return None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# the round


@dataclass
class Call:
    """One CLI invocation of a round, with what its output must satisfy."""

    argv: list[str]
    family: str
    n: int
    word: tuple[int, ...] | None = None
    expect: dict = field(default_factory=dict)

    def properties(self) -> dict:
        """Input properties for the traffic record."""
        word = self.word
        if "witness_size" in self.expect:
            witness = self.expect["witness_size"]
        elif word is None or self.family == "tangled":
            witness = None
        else:
            # None here also covers "larger than the cap"
            witness = smallest_even_split_size(canonical(word), RANDOM_WITNESS_CAP)
        return {
            "family": self.family,
            "n": self.n,
            "cut_width": cut_width(word) if word else None,
            "witness_size": witness,
            "fib_2n_plus_1": fibonacci(2 * self.n + 1),
        }


def _relabel(word, rng: random.Random, reverse: bool = True) -> tuple[int, ...]:
    """Rename letters by a random permutation and maybe reverse the word;
    neither changes the class, the count or the maximality verdict."""
    n = len(word) // 2
    image = list(range(1, n + 1))
    rng.shuffle(image)
    out = tuple(image[a - 1] for a in word)
    return out[::-1] if reverse and rng.random() < 0.5 else out


def _random_word(n: int, rng: random.Random) -> tuple[int, ...]:
    letters = list(range(1, n + 1)) * 2
    rng.shuffle(letters)
    return canonical(letters)


def _word_call(command: str, family: str, word, expect: dict, *extra: str) -> Call:
    return Call(
        argv=[command, *extra, *map(str, word)],
        family=family,
        n=len(word) // 2,
        word=tuple(word),
        expect=expect,
    )


def _spread_out(groups: list[list[Call]]) -> list[Call]:
    """Take one call from each group in turn.

    Calls of the same size then sit apart in the round, so the median
    latency, which lands among them, samples the machine at several
    moments rather than in one short stretch.
    """
    out: list[Call] = []
    for k in range(max(len(g) for g in groups)):
        out += [g[k] for g in groups if k < len(g)]
    return out


def build_round(workload: str, seed: int, reference: dict, threads: int) -> list[Call]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        return [
            Call(
                argv=["census", str(CENSUS_N), "--format", "csv", "--threads", str(k)],
                family=f"census-{k}p",
                n=CENSUS_N,
                expect={"sha256": reference["census"]["csv_sha256"]},
            )
            for k in sorted({1, threads})
        ]
    if workload == "count":
        by_n = []
        for n in COUNT_NS:
            pool = reference["count"]["random"][str(n)]
            pick = pool[rng.randrange(len(pool))]
            by_n.append([
                _word_call("count", family, _relabel(word, rng), {"count": value})
                for family, word, value in (
                    ("tangled", tangled_cord(n), fibonacci(2 * n + 1) - 1),
                    ("random", pick["word"], pick["count"]),
                    ("interleaved", interleaved(n), reference["count"]["interleaved"][str(n)]),
                )
            ])
        return _spread_out(by_n)
    if workload == "analyze":
        cords = [
            _word_call(
                "analyze", "tangled", _relabel(tangled_cord(n), rng),
                {"witness_size": None, "composition": False}, "--format", "json",
            )
            for n in ANALYZE_NS
        ]
        compositions = []
        for n in ANALYZE_NS:
            # the witness search meets the smaller cord's letters after
            # canonicalization; its cost depends on which cord comes first,
            # so the order is fixed (tc(a) first) and the word not reversed
            a, b = n // 2, n - n // 2
            word = tangled_cord(a) + tuple(x + a for x in tangled_cord(b))
            compositions.append(
                _word_call(
                    "analyze", "composition", _relabel(word, rng, reverse=False),
                    {"witness_size": min(a, b), "composition": True}, "--format", "json",
                )
            )
        randoms = []
        while len(randoms) < ANALYZE_RANDOM_PER_ROUND:
            word = _random_word(rng.randint(*ANALYZE_RANDOM_NS), rng)
            size = smallest_even_split_size(word, RANDOM_WITNESS_CAP)
            if size is None:
                continue
            randoms.append(
                _word_call(
                    "analyze", "random", _relabel(word, rng),
                    {"witness_size": size, "composition": is_composition(word)},
                    "--format", "json",
                )
            )
        half = len(randoms) // 2
        return _spread_out([cords, randoms[:half], compositions, randoms[half:]])
    if workload == "enumerate":
        by_n = []
        for n in ENUMERATE_NS:
            tangled = reference["enumerate"]["tangled"][str(n)]
            chosen = [tangled] + rng.sample(
                reference["enumerate"]["random"][str(n)], ENUMERATE_RANDOM_PER_N
            )
            by_n.append([
                _word_call(
                    "enumerate", "tangled" if k == 0 else "random", entry["word"],
                    {"count": entry["count"], "sha256": entry["sha256"]},
                    "--format", "json",
                )
                for k, entry in enumerate(chosen)
            ])
        return _spread_out(by_n)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks; each returns None when the output is right, else a reason


def check(call: Call, status: int, stdout: bytes) -> str | None:
    if status != 0:
        return f"exit status {status}"
    try:
        command = call.argv[0]
        if command == "census":
            return _check_census(call, stdout)
        if command == "count":
            got = int(stdout.decode().strip())
            want = call.expect["count"]
            return None if got == want else f"count {got}, expected {want}"
        if command == "enumerate":
            return _check_enumerate(call, stdout)
        if command == "analyze":
            return _check_analyze(call, json.loads(stdout))
        if command == "tc":
            want = render(tangled_cord(int(call.argv[1])))
            got = stdout.decode().strip()
            return None if got == want else f"tc printed {got!r}, expected {want!r}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return f"no check for {command!r}"


def _check_census(call: Call, stdout: bytes) -> str | None:
    rows = list(csv.DictReader(io.StringIO(stdout.decode())))
    if len(rows) != CENSUS_CLASSES:
        return f"{len(rows)} classes, expected {CENSUS_CLASSES}"
    maximal = [r["representative"] for r in rows if r["is_maximal"] == "true"]
    if maximal != [render(tangled_cord(CENSUS_N))]:
        return f"maximal classes {maximal}"
    bound = fibonacci(2 * CENSUS_N + 1) - 1
    for r in rows:
        count = int(r["count"])
        if int(r["bound"]) != bound or count > bound:
            return f"bound violated by {r['representative']}"
        if (count == bound) != (r["is_maximal"] == "true"):
            return f"count and parity disagree on {r['representative']}"
    if sha256(stdout) != call.expect["sha256"]:
        return "csv differs from the reference"
    return None


def _check_enumerate(call: Call, stdout: bytes) -> str | None:
    payload = json.loads(stdout)
    want = call.expect["count"]
    if len(payload) != want:
        return f"{len(payload)} sets, expected {want}"
    masks = [entry["mask"] for entry in payload]
    if len(set(masks)) != len(masks):
        return "two sets share a fingerprint"
    if any("11" in m or len(m) != 2 * call.n - 1 for m in masks):
        return "a fingerprint has adjacent edges or the wrong length"
    if sha256(stdout) != call.expect["sha256"]:
        return "output differs from the reference"
    return None


def _check_analyze(call: Call, report: dict) -> str | None:
    n = call.n
    word = canonical(call.word)
    if report["word"] != render(word) or report["n"] != n:
        return "report names another word"
    if report["count"] is not None:
        return "counting ran above the cross-check limit"
    if report["bound"] != fibonacci(2 * n + 1) - 1:
        return f"bound {report['bound']}"
    size = call.expect["witness_size"]
    if report["is_maximal"] != (size is None):
        return f"is_maximal {report['is_maximal']} on a {call.family} word"
    sigma = report["failing_sigma"]
    if size is None:
        if sigma is not None or report["minimal_even_split"] is not None:
            return "a maximal word reported a witness"
    else:
        if sigma is None or len(sigma) != size:
            return f"witness {sigma}, expected {size} letters"
        if not leaves_even_pieces(word, set(sigma)):
            return f"witness {sigma} leaves an odd piece"
        projection = report["minimal_even_split"]["projection"]
        letters = projection.split() if " " in projection else list(projection)
        if canonical(map(int, letters)) != tangled_cord(size):
            return f"witness projects to {projection}, not a tangled cord"
    if report["is_composition"] != call.expect["composition"]:
        return f"is_composition {report['is_composition']}"
    if (report["framing_cord"] is None) != call.expect["composition"]:
        return "framing cord present exactly on the wrong side"
    return None
