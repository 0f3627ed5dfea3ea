#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench, runs the helper self-tests, then runs one
workload. Everything the benchmark binary prints is passed through; its
last line is the JSON result. The result is checked against
BENCHMARK.json (exact keys, the full metric list with its units) before
it is printed; a run that fails to build, fails a self-test, times out
or breaks the schema exits non-zero without printing a result.

Seeds: 1 is the default seed every comparison uses; 9 is held out for
confirming a claim made on seed 1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
DEFAULT_SEED = 1
# The workload alone; a first run also builds, which may take minutes.
RUN_LIMIT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))


def source_id():
    """Git commit when available, plus a digest of the benchmarked tree."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    tree = "tree-sha256:" + digest.hexdigest()[:16]
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()[:12] + " " + tree
    except (OSError, subprocess.SubprocessError):
        pass
    return tree


def check_result(line, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if list(result) != ["correct", "attempted", "failed", "metrics"]:
        return "result keys are %s" % list(result)
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            return key + " is not a whole number"
    if result["attempted"] < 1 or result["failed"] > result["attempted"]:
        return "attempted/failed out of range"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)))
    for name, m in result["metrics"].items():
        if sorted(m) != ["unit", "value"] or not isinstance(
                m["value"], (int, float)) or isinstance(m["value"], bool):
            return "metric %s is malformed" % name
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    if subprocess.call([os.path.join(BUILD, "perfbench_selftest")],
                       stdout=subprocess.DEVNULL) != 0:
        fail("helper self-tests failed")

    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source", source_id()]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        command += ["--trace-out", os.path.join(
            TRACES, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        fail("workload exited with status %d" % run.returncode)
    problem = check_result(lines[-1], args.trace)
    if problem:
        sys.stderr.write(run.stdout)
        fail("bad result line: " + problem)
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
