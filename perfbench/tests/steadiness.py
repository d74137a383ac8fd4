#!/usr/bin/env python3
"""Steadiness self-check for the benchmark.

    python3 perfbench/tests/steadiness.py --runs 5 [--workloads a,b]

Runs every workload in two sets of --runs runs on one build, each run with
its own seed (set one: 1..N, set two: N+1..2N). For each end-to-end metric
it prints the quartile spread (Q3 - Q1) / median of each set and of all
runs together, next to the metric's bound from BENCHMARK.json, and the
shift of the second set's median against the first. Exits nonzero when a
spread other than setup_s exceeds its bound, or when the second median is
worse than the first by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         + proc.stdout[-2000:] + proc.stderr[-2000:])
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="also write the raw values as JSON")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = [[run_once(workload, seed, args.seconds)
                 for seed in range(first, first + args.runs)]
                for first in (1, args.runs + 1)]
        raw[workload] = sets
        print(f"{workload}: {args.runs} runs per set, {args.seconds} s each")
        print(f"  {'metric':20s} {'bound':>6s} {'spread1':>8s} {'spread2':>8s}"
              f" {'spread':>8s} {'median1':>12s} {'shift':>8s}")
        for name, m in metrics.items():
            one = [r[name] for r in sets[0]]
            two = [r[name] for r in sets[1]]
            med1, med2 = statistics.median(one), statistics.median(two)
            shift = (med2 - med1) / med1
            worse = shift if m["better"] == "lower" else -shift
            spreads = [spread(one), spread(two), spread(one + two)]
            bad = worse > m["bound"] or (
                name != "setup_s" and max(spreads) > m["bound"])
            ok &= not bad
            print(f"  {name:20s} {m['bound']:6.3f} {spreads[0]:8.4f} "
                  f"{spreads[1]:8.4f} {spreads[2]:8.4f} {med1:12.6g} "
                  f"{shift:+8.4f}{'  EXCEEDS BOUND' if bad else ''}")
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
