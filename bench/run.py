"""Benchmark of the dowgraph command line, end to end and layer by layer.

Run from the repository root (Python 3.10+, nothing to install):

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

The untraced run (``--trace 0``) drives ``python -m dowgraph.cli`` as a
user does, in a closed loop: one client, one invocation at a time.  It
repeats the workload's round (see ``workloads.py``) while the time lasts,
checks every output, and prints the end-to-end metrics.  The traced run
(``--trace 1``) runs each invocation of a round three times: through the
CLI, in this process without spans, and in this process with spans around
every layer call (see ``spans.py``); it prints the per-layer metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record (environment, traffic record
of every input with its properties, samples, spans) goes to ``bench/out/``.
The program is always the working tree's ``src/``; the run stops with exit
status 2 and prints no result when that copy is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_WARMUPS = 2
SETUP_FIRST = 5
SETUP_EVERY_S = 2.0
# a single invocation that runs longer than this is killed and counts as failed
CALL_TIMEOUT_S = 100


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    status: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def invoke(argv: list[str]) -> Outcome:
    """Run ``python -m dowgraph.cli argv`` and wait for it.

    Wall time runs from the spawn until the child is reaped; max RSS comes
    from ``os.wait4``, which also covers reaped grandchildren such as pool
    workers.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "dowgraph.cli", *argv],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    killer.start()
    errors: list[bytes] = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    try:
        stdout = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(wall, usage.ru_maxrss / 1024, proc.returncode, stdout, errors[0])


def check_working_tree() -> str:
    """The file the CLI imports dowgraph from; it must be under ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "dowgraph", "cli.py")):
        raise BenchError(f"no dowgraph package under {SRC}")
    proc = subprocess.run(
        [sys.executable, "-c", "import dowgraph; print(dowgraph.__file__)"],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    path = os.path.realpath(proc.stdout.strip())
    if proc.returncode or not path.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"dowgraph imports from {path or proc.stderr!r}, not {SRC}")
    return path


def git_sha() -> str | None:
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir):
        return None
    try:
        proc = subprocess.run(
            ["git", f"--git-dir={git_dir}", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except FileNotFoundError:  # no git installed
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "dowgraph")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def environment(module_file: str) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "dowgraph_file": module_file,
    }


class Checker:
    """Counts attempted and failed invocations, keeping the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, call: workloads.Call, status: int, stdout: bytes, where: str) -> None:
        self.attempted += 1
        reason = workloads.check(call, status, stdout)
        if reason is not None:
            self.failures.append(f"{where} {' '.join(call.argv)[:80]}: {reason}")


def time_setup(checker: Checker) -> float:
    """Interpreter start plus ``import dowgraph.cli``, timed as ``tc 1``."""
    call = workloads.Call(argv=["tc", "1"], family="setup", n=1)
    outcome = invoke(call.argv)
    checker(call, outcome.status, outcome.stdout, "setup")
    return outcome.wall_s


def untraced_run(calls, seconds: float, checker: Checker) -> tuple[dict, dict]:
    """Repeat the round while it still fits in ``seconds`` (at least once).

    Set-up samples are taken at the start and then between invocations
    every ``SETUP_EVERY_S``, so that their median sees the machine over the
    whole run, as the workload does.
    """
    for _ in range(SETUP_WARMUPS):
        time_setup(checker)
    setup_walls = [time_setup(checker) for _ in range(SETUP_FIRST)]
    last_setup = time.perf_counter()
    rounds: list[float] = []
    per_call: list[list[float]] = [[] for _ in calls]
    out_bytes = [0] * len(calls)
    peak_rss = 0.0
    start = time.perf_counter()
    while True:
        outcomes = []
        for call in calls:
            outcomes.append(invoke(call.argv))
            if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                setup_walls.append(time_setup(checker))
                last_setup = time.perf_counter()
        rounds.append(sum(outcome.wall_s for outcome in outcomes))
        for k, (call, outcome) in enumerate(zip(calls, outcomes)):
            checker(call, outcome.status, outcome.stdout, f"round {len(rounds)}")
            per_call[k].append(outcome.wall_s)
            out_bytes[k] = len(outcome.stdout)
            peak_rss = max(peak_rss, outcome.rss_mb)
        del outcomes
        if time.perf_counter() - start + rounds[-1] > seconds:
            break
    latencies = [w for walls in per_call for w in walls]
    metrics = {
        "wall_s": statistics.median(rounds),
        # each invocation's latency is its median over rounds; a median over
        # raw samples would jump between the clusters a round is made of
        "p50_s": statistics.median(statistics.median(walls) for walls in per_call),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": peak_rss,
    }
    detail = {
        "rounds": len(rounds),
        "round_walls_s": rounds,
        "invocations": len(latencies),
        "setup_walls_s": setup_walls,
        "traffic": [
            {**call.properties(), "argv": call.argv, "output_bytes": size,
             "median_wall_s": statistics.median(walls)}
            for call, size, walls in zip(calls, out_bytes, per_call)
        ],
    }
    # a percentile is reported only with at least ten samples beyond it
    if len(latencies) >= 100:
        detail["p90_s"] = statistics.quantiles(latencies, n=10)[-1]
    return metrics, detail


def traced_run(calls, seconds: float, checker: Checker) -> tuple[dict, dict]:
    sys.path.insert(0, SRC)
    import dowgraph as dg
    import dowgraph.cli  # noqa: F401  (the traced entry point)

    if not os.path.realpath(dg.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"dowgraph imports from {dg.__file__}, not {SRC}")
    tracer = spans.Tracer()
    rounds: list[dict] = []
    kept: list[list] = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        tracer.reset()
        cli_wall = plain_wall = traced_wall = 0.0
        for call in calls:
            where = f"traced round {len(rounds) + 1}"
            outcome = invoke(call.argv)
            checker(call, outcome.status, outcome.stdout, where)
            status, stdout, wall = spans.call_in_process(dg, call.argv)
            checker(call, status, stdout, where + " in-process")
            tracer.request += 1
            status, stdout, traced = spans.call_in_process(dg, call.argv, tracer)
            checker(call, status, stdout, where + " traced")
            cli_wall += outcome.wall_s
            plain_wall += wall
            traced_wall += traced
        metrics = spans.round_metrics(tracer.spans, tracer.counts)
        layer_self = sum(metrics[f"{layer}.layer_self_s"] for layer in spans.LAYERS)
        # the library time is the untraced in-process time less cli.main's
        # own part, so that the tracing overhead does not count against it
        library = plain_wall - metrics["cli.layer_self_s"]
        metrics.update({
            "cli.self_s": cli_wall - library,
            "cli.wall_s": cli_wall,
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": plain_wall,
            "trace.overhead_ratio": traced_wall / plain_wall,
            "trace.accounted_frac": layer_self / traced_wall,
        })
        rounds.append(metrics)
        kept.append(tracer.spans)
        if time.perf_counter() - start + (time.perf_counter() - begun) > seconds:
            break
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    detail = {
        "rounds": len(rounds),
        "round_metrics": rounds,
        "traffic": [{**call.properties(), "argv": call.argv} for call in calls],
        "span_fields": ["request", "name", "start_ns", "end_ns", "parent"],
        "spans": kept,
    }
    return metrics, detail


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        module_file = check_working_tree()
        env = environment(module_file)
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
            reference = json.load(handle)
        threads = min(2, env["nproc"])
        calls = workloads.build_round(args.workload, args.seed, reference, threads)
        checker = Checker()
        run = traced_run if args.trace else untraced_run
        metrics, detail = run(calls, args.seconds, checker)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    units = {}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    for entry in declared["per_layer" if args.trace else "end_to_end"]:
        units[entry["name"]] = entry["unit"]
    os.makedirs(OUT, exist_ok=True)
    record = {
        "args": vars(args),
        "environment": env,
        "metrics": metrics,
        "failures": checker.failures,
        **detail,
    }
    path = os.path.join(OUT, f"{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    for failure in checker.failures[:20]:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {detail['rounds']} rounds, "
          f"record in {os.path.relpath(path, ROOT)}", file=sys.stderr)
    failed = len(checker.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
