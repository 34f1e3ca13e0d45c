"""Append an entry to ``bench/trajectory.json``.

Runs every workload untraced once per seed, then traced once, and records
each metric's median and quartiles with the environment of the runs:

    python3 bench/record.py --label seed --seconds 30 --seeds 1-10

``spread`` is the distance between the quartiles as a share of the median,
the figure a metric's bound in ``BENCHMARK.json`` is compared with.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads
from run import HERE, OUT, ROOT

TRAJECTORY = os.path.join(HERE, "trajectory.json")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    with open(os.path.join(OUT, f"{workload}-trace{trace}.json"), encoding="utf-8") as handle:
        record = json.load(handle)
    print(f"{workload} seed {seed} trace {trace}: "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())[:300],
          file=sys.stderr, flush=True)
    return result, record


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    args = parser.parse_args()
    entry: dict = {"label": args.label, "run_seconds": args.seconds, "seeds": args.seeds,
                   "workloads": {}}
    for workload in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            result, record = run_once(workload, seed, args.seconds, 0)
            entry.setdefault("environment", record["environment"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        traced, _ = run_once(workload, args.seeds[0], args.seconds, 1)
        entry["workloads"][workload] = {
            "end_to_end": {name: summary(v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    trajectory = {"entries": []}
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY, encoding="utf-8") as handle:
            trajectory = json.load(handle)
    trajectory["entries"].append(entry)
    with open(TRAJECTORY, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=1)
        handle.write("\n")
    for workload, figures in entry["workloads"].items():
        for name, s in figures["end_to_end"].items():
            print(f"{workload:10s} {name:12s} median {s['median']:.4g} spread {s['spread']:.3f}")


if __name__ == "__main__":
    main()
