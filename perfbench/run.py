#!/usr/bin/env python3
"""Builds and runs the join-avoidance benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload realworld|simulate|serve \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
hamlet library from the checkout's own sources) under .bench_build/.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: every end-to-end metric that
BENCHMARK.json lists with --trace 0, every per-layer metric with
--trace 1. The exit status is non-zero when an output check failed (the
result is still printed) and when the build or the run itself failed (no
result is printed).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HISTORY = os.path.join(BUILD_DIR, "history.jsonl")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step {step[:2]} failed: {err}")
            return False
        if done.returncode != 0:
            log(f"build step {step[:2]} exited {done.returncode}")
            return False
    return True


def run_binary(args):
    """Runs the perfbench binary; returns (exit code, parsed last line)."""
    binary = os.path.join(BUILD_DIR, "perfbench")
    env = dict(os.environ)
    # A fixed pool size, unless the caller chose one: the parallel pool
    # otherwise sizes itself to the host. Two threads keep the parallel
    # paths running while leaving half of a 4-core host to its other
    # tenants, whose load otherwise moves every wall-time figure.
    env.setdefault("HAMLET_THREADS", str(min(2, os.cpu_count() or 1)))
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, env=env, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"run failed: {err}")
        return 1, None
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no result line (exit {done.returncode})")
        return done.returncode or 1, None


def select_metrics(raw, listed, known, required):
    """The `listed` metrics of BENCHMARK.json, in its order and units.

    A per-layer metric of a layer the workload does not run is reported as
    0; a `required` (end-to-end) metric must be measured. Every metric the
    binary reports must be `known` to BENCHMARK.json. Returns None on a
    mismatch between the two.
    """
    out = {}
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        got = raw.get(name)
        if got is None:
            if required:
                log(f"end-to-end metric {name} was not measured")
                return None
            got = {"value": 0.0, "unit": unit}
        if got["unit"] != unit or got["value"] is None:
            log(f"metric {name}: got {got}, BENCHMARK.json says {unit}")
            return None
        out[name] = {"value": got["value"], "unit": unit}
    unknown = sorted(set(raw) - known)
    if unknown:
        log(f"metrics missing from BENCHMARK.json: {unknown}")
        return None
    return out


def check_counters(args, result):
    """Flags a run whose deterministic counters differ from a sibling's.

    Siblings share workload, seed, size and host fingerprint; their
    library counters repeat exactly, so a difference means the inputs
    drifted. Results from another fingerprint are never compared.
    """
    key = {"workload": args.workload, "seed": args.seed,
           "minimal": args.minimal, "fingerprint": result["fingerprint"]}
    counters = result["counters"]
    drift = []
    if os.path.exists(HISTORY):
        with open(HISTORY, encoding="utf-8") as history:
            for line in history:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if record.get("key") == key and record["counters"] != counters:
                    drift.append(record["counters"])
    if drift:
        log(f"COUNTER DRIFT: {counters} differs from a sibling run's "
            f"{drift[0]}; this run's inputs are not its siblings'")
    log("fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    with open(HISTORY, "a", encoding="utf-8") as history:
        history.write(json.dumps({"key": key, "counters": counters},
                                 sort_keys=True) + "\n")


def selftest():
    """The C++ self-tests, then the CLI's exit status on a corrupt answer."""
    code = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                          stderr=sys.stderr, check=False).returncode
    if code != 0:
        log("selftest FAILED")
        return 1
    args = ["--workload", "serve", "--seed", "1", "--seconds", "1",
            "--trace", "0", "--minimal", "--corrupt-response"]
    code, result = run_binary(args)
    if code == 0 or result is None or result["correct"]:
        log("selftest FAILED: a corrupted serve answer did not fail the run")
        return 1
    log("selftest passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--minimal", action="store_true",
                        help="shrink the workload to a few seconds (smoke)")
    parser.add_argument("--corrupt-response", action="store_true",
                        help="flip one served answer; the run must fail")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    try:
        with open(SPEC, encoding="utf-8") as spec_file:
            spec = json.load(spec_file)
    except (OSError, json.JSONDecodeError) as err:
        log(f"cannot read BENCHMARK.json: {err}")
        return 1
    if not build():
        return 1
    if args.selftest:
        return selftest()

    binary_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.minimal:
        binary_args.append("--minimal")
    if args.corrupt_response:
        binary_args.append("--corrupt-response")
    code, result = run_binary(binary_args)
    if result is None:
        return code or 1
    check_counters(args, result)
    section = "per_layer" if args.trace else "end_to_end"
    known = {e["name"] for e in spec["end_to_end"] + spec["per_layer"]}
    metrics = select_metrics(result["metrics"], spec[section], known,
                             required=not args.trace)
    if metrics is None:
        return 1
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
