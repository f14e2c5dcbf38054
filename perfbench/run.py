#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload ingest|serve|query --seed N \
        --seconds S --trace 0|1

Run from the repository root. The benchmark is compiled from the sources
in the checkout (Release, into $CARGO_TARGET_DIR or .bench_build), then
`vcbench` runs the workload. Human-readable tables go to stdout first; the
last stdout line is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`.

Besides that line, every run leaves in the build directory:
  results/<workload>-seed<N>-trace<T>.json  the full stamped result
  records/<workload>-seed<N>-<build>.json   deterministic values; a later
                                            run of the same binary with the
                                            same seed must reproduce them
                                            exactly
  traces/<workload>.json                    Chrome trace of the latest
                                            traced run
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    """Configures (once) and builds vcbench; returns the binary's path."""
    if not os.path.exists(os.path.join(ROOT, "src", "core", "visualcloud.h")):
        fail("library sources (src/) not found next to perfbench/")
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "vcbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (see " + log_path + ")")
    return os.path.join(out, "vcbench")


def commit():
    """The checkout's commit, or "unknown" when it carries no git data."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def binary_digest(binary):
    """Names what was built: a change to the program gets fresh records."""
    digest = hashlib.sha256()
    with open(binary, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def check_determinism(out, result, build_id):
    """Compares the deterministic values with an earlier run of the same
    binary, workload and seed; returns a list of mismatches."""
    records = os.path.join(out, "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, f"{result['workload']}-seed{result['seed']}"
                        f"-{build_id}.json")
    values = result["deterministic"]
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(values, f, indent=1, sort_keys=True)
        return []
    with open(path) as f:
        earlier = json.load(f)
    return [f"{key}: {earlier.get(key)} before, {values.get(key)} now"
            for key in sorted(set(earlier) | set(values))
            if earlier.get(key) != values.get(key)]


def final_metrics(spec, result, trace):
    """Exactly the metrics BENCHMARK.json names for this mode. A per-layer
    metric of a layer the workload does not exercise reads 0."""
    metrics = {}
    source = result["per_layer"] if trace else result["end_to_end"]
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if name in source:
            value = source[name]["value"]
        elif trace:
            value = 0.0
        else:
            fail(f"workload did not report {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = build(out)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit()]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        # One file per workload (the latest traced run): traces run to
        # tens of MB, so they are not kept per seed.
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}.json")]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    results = [line for line in lines if line.startswith("RESULT ")]
    if done.returncode != 0 or not results:
        sys.stdout.write(done.stdout)
        fail(f"vcbench exited with {done.returncode}")
    result = json.loads(results[-1][len("RESULT "):])
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)

    correct = bool(result["correct"])
    failed = int(result["failed"])
    build_id = binary_digest(binary)
    result["stamp"]["binary"] = build_id
    mismatches = check_determinism(out, result, build_id)
    for mismatch in mismatches:
        print(f"DETERMINISM MISMATCH {mismatch}")
    if mismatches:
        correct = False
        failed += 1
    result["determinism_mismatches"] = mismatches

    results_dir = os.path.join(out, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    stamp = result["stamp"]
    print(f"stamp: commit {stamp.get('commit')}, {stamp.get('build_type')}, "
          f"simd {stamp.get('simd')}, nproc {stamp.get('nproc')}")

    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": final_metrics(spec, result, args.trace),
    }))


if __name__ == "__main__":
    main()
