"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/spread.py --workload scan --seeds 0-9

Runs bench/run.py once per seed with --trace 0 for BENCHMARK.json's
run_seconds, one run at a time, and prints for each
metric the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json. Use it to judge whether a change moved a metric by more
than the run-to-run noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:40s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {bounds[name]:6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
