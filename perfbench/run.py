#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload paper-table4 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); each run's host fingerprint, per-metric samples and
failed checks are written to <build>/results/. The last line of stdout is one
JSON object: correct, attempted, failed and the metrics BENCHMARK.json lists
(end_to_end with --trace 0, per_layer with --trace 1). `--workload all` runs
every workload, each in its own process, and prints one such line per
workload.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path.cwd()
WORKLOADS = ("paper-table4", "scale-influence", "scale-build")
# Quality metrics a workload does not produce. Every end-to-end metric must be
# present in every result line, so these report the constant 1 ("not
# exercised"); README.md lists which workload each one applies to.
NOT_EXERCISED = 1.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    source = ROOT / "perfbench"
    if not (ROOT / "src").is_dir():
        fail("no src/ directory next to perfbench/: run from the root of a checkout")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", str(source), "-B", str(build_dir), *generator,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", str(len(os.sched_getaffinity(0)))],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return build_dir / "perfbench"


def run_workload(binary, spec, args, workload, results_dir):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    detail = result = None
    for line in done.stdout.splitlines():
        if line.startswith("perfbench-detail "):
            detail = json.loads(line[len("perfbench-detail "):])
        elif line.startswith("perfbench-result "):
            result = json.loads(line[len("perfbench-result "):])
        else:
            print(line)
    if done.returncode != 0 or result is None:
        fail(f"{workload}: perfbench exited with {done.returncode} and no result")

    measured = result["metrics"]
    metrics = {}
    if args.trace:
        # A layer the workload does not exercise did no work: 0.
        for m in spec["per_layer"]:
            value = measured.get(m["name"], {}).get("value", 0.0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            value = measured.get(m["name"], {}).get("value", NOT_EXERCISED)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        attempted = result["attempted"]
        metrics["ok_rate"]["value"] = (attempted - result["failed"]) / attempted
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}

    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps({"detail": detail, "result": line}, indent=1))
    return line


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found: run from the root of a checkout")
    spec = json.loads(spec_path.read_text())
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        line = run_workload(binary, spec, args, workload, build_dir / "results")
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
