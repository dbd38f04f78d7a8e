#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 perfbench/spread.py --workloads scale-build,paper-table4 --seeds 1-10

Runs perfbench/run.py once per seed (trace off) and prints, per metric, the
median, the quartile distance (statistics.quantiles(values, n=4)) as a share
of the median, and that share against the metric's bound in BENCHMARK.json.
A benchmark is steady when every spread except setup_s stays under a third of
its bound. Raw result lines are appended to <build>/results/spread.jsonl.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    args = parser.parse_args()

    root = pathlib.Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    log = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "results" / "spread.jsonl"
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            line = json.loads(done.stdout.strip().splitlines()[-1])
            log.parent.mkdir(parents=True, exist_ok=True)
            with log.open("a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, **line}) + "\n")
            for name in values:
                values[name].append(line["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"wall_s={line['metrics']['wall_s']['value']:.4f}", flush=True)
        print(f"\n{workload} ({len(values['wall_s'])} seeds)")
        print(f"{'metric':20} {'median':>12} {'iqr/med':>8} {'bound/3':>8}")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            share = (q[2] - q[0]) / med if med else float("inf")
            flag = "" if share < m["bound"] / 3 or m["name"] == "setup_s" else "  WIDE"
            print(f"{m['name']:20} {med:12.6g} {share:8.4f} {m['bound'] / 3:8.4f}{flag}")


if __name__ == "__main__":
    main()
