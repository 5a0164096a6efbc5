#!/usr/bin/env python3
"""Builds the benchmark from the checkout and runs one workload.

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), the run's
scratch files and traces to its runs/ directory. Every run first runs
the harness self-tests. The last line of standard output is the result
as one JSON object; the exit code is non-zero when a check failed or
the run could not complete, and no result is printed when the program
cannot be built.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The first run of a checkout compiles the library; later runs reuse it.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "fusion", "data_tamer.h")):
        log("perfbench: no library sources under %s/src" % ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("perfbench: %s: %s" % (" ".join(cmd[:2]), err))
            return False
        if proc.returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return False
    return True


def run(cmd, timeout):
    """Runs `cmd`, killing and reaping it on timeout. (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: %s timed out after %d s" % (cmd[1], timeout))
        return None, ""
    return proc.returncode, out


def load_spec():
    """BENCHMARK.json: the metrics, with their units, of each mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        log("perfbench: no BENCHMARK.json at %s" % ROOT)
        return None
    with open(path) as f:
        return json.load(f)


def check_names(spec):
    """Every metric name of BENCHMARK.json: valid and used once."""
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]]
    problems = ["bad metric name %r" % n
                for n in names if not NAME_RE.match(n)]
    problems += ["metric name %r used twice" % n
                 for n in sorted(set(names)) if names.count(n) > 1]
    return problems


def to_result(raw, spec, trace):
    """The run's raw line -> (result, problems): the mode's metrics from
    BENCHMARK.json, each with its measured value and its unit."""
    if sorted(raw) != ["attempted", "correct", "failed", "values"]:
        return None, ["raw result keys are %s" % sorted(raw)]
    values = raw["values"]
    metrics, missing = {}, []
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
        else:
            missing.append(m["name"])
    problems = ["metric %s was not measured" % n for n in missing]
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the harness self-tests only")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    start = time.time()
    spec = load_spec()
    if spec is None:
        return 2
    problems = check_names(spec)
    for p in problems:
        log("perfbench: BENCHMARK.json: " + p)
    if problems:
        return 2
    out = build_dir()
    if not build(out):
        return 2
    binary = os.path.join(out, "dtbench")
    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)

    code, text = run([binary, "--selftest"], RUN_TIMEOUT_S)
    sys.stderr.write(text)
    if code != 0:
        log("perfbench: harness self-tests failed")
        return 2
    if args.selftest:
        return 0

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", runs]
    code, text = run(cmd, RUN_TIMEOUT_S)
    lines = text.rstrip("\n").split("\n") if text.strip() else []
    if code is None or not lines:
        sys.stdout.write(text)
        return 3
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        raw = None
    if not isinstance(raw, dict):
        sys.stdout.write(text)
        log("perfbench: the run printed no result (exit %s)" % code)
        return code or 3
    result, problems = to_result(raw, spec, args.trace)
    for p in problems:
        log("perfbench: " + p)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return 4

    # Keep the run context beside every result.
    context = None
    for line in lines:
        if line.startswith("context: "):
            context = json.loads(line[len("context: "):])
    record = os.path.join(runs, "result-%s-%d-trace%d.json" %
                          (args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump({"context": context, "result": result,
                   "wall_s": round(time.time() - start, 3)}, f, indent=1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    for name, m in result["metrics"].items():
        print("  %-44s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
