#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
benchmark (the repository's libraries from src/ plus the st_e2ebench
binary, Release) under .bench_build/e2ebench; later calls only check that
the build is current. Build output goes to stderr; the binary's stdout is
passed through, except its last line, the JSON result: BENCHMARK.json's
metric list is the one source of the metric names and units, so the result
is checked against it and, in a traced run, completed with a 0 for every
per-layer metric the workload does not exercise.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "st_e2ebench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    sys.stderr.write("e2ebench/run.py: %s\n" % msg)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to e2ebench/: run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", BUILD, "--target", "st_e2ebench", "-j", jobs])


def step(cmd):
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build step timed out: %s" % " ".join(cmd))
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build step failed: %s" % " ".join(cmd))


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json lists for this mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return [(m["name"], m["unit"]) for m in
            spec["per_layer" if trace else "end_to_end"]]


def complete(result, trace):
    """The result with its metrics in BENCHMARK.json's order and units."""
    got = result["metrics"]
    declared = declared_metrics(trace)
    names = set(name for name, _ in declared)
    extra = sorted(set(got) - names)
    if extra:
        fail("metrics missing from BENCHMARK.json: %s" % ", ".join(extra))
    metrics = {}
    for name, unit in declared:
        m = got.get(name)
        if m is None:
            if not trace:
                fail("end-to-end metric %s not reported" % name)
            m = {"value": 0, "unit": unit}
        if m["unit"] != unit:
            fail("%s reported in %s, BENCHMARK.json says %s" %
                 (name, m["unit"], unit))
        metrics[name] = m
    result["metrics"] = metrics
    return result


def main():
    args = argparse.ArgumentParser(add_help=False)
    args.add_argument("--trace", default="0")
    known, _ = args.parse_known_args()
    build()
    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [BINARY] + sys.argv[1:] + [
        "--workdir", workdir,
        "--data-dir", os.path.join(ROOT, "tests", "data"),
        "--reference-dir", os.path.join(HERE, "reference"),
    ]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.decode().splitlines()
    if r.returncode != 0 or not lines:
        # No result: what the binary printed goes to stderr.
        sys.stderr.write("".join(line + "\n" for line in lines))
        sys.exit(r.returncode or 1)
    result = complete(json.loads(lines[-1]), known.trace == "1")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
