#!/usr/bin/env python3
"""Builds skute_bench from source and runs one workload.

    python3 bench/skute_bench/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build). The binary's full result, with host metadata, is
kept at <build>/runs/<workload>-<seed>.json and a traced run's Chrome trace
beside it. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the source tree clean
import selftime  # noqa: E402

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    return 1


def build(build_root):
    """Configures (once) and builds the benchmark; returns the binary."""
    build_dir = os.path.join(build_root, "skute_bench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_root, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "skute_bench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S).returncode
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                return None
    return os.path.join(build_dir, "skute_bench")


def commit_id():
    """The checkout's commit, suffixed -dirty when the tree has changes."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty",
                              "--abbrev=40"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src", "skute"))):
        return fail("run from the repository root: no skute sources here")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail("unknown workload " + args.workload)

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_root)
    if binary is None:
        return fail("build failed")
    with open(binary, "rb") as f:
        binary_id = hashlib.sha256(f.read()).hexdigest()[:16]

    runs = os.path.join(build_root, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, "%s-%d" % (args.workload, args.seed))
    result_path = stem + ".json"
    trace_path = stem + ".trace.json"
    for path in (result_path, trace_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--json=" + result_path,
           "--commit=" + commit_id(),
           # Same binary and seed must give the same deterministic outcome.
           "--fingerprint-dir=" + os.path.join(build_root, "fingerprints",
                                               binary_id)]
    if args.trace:
        cmd.append("--trace=" + trace_path)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                          text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1) or not os.path.isfile(result_path):
        return fail("skute_bench exited with %d" % proc.returncode)
    with open(result_path) as f:
        result = json.load(f)

    values = {name: (m["value"], m["unit"])
              for name, m in result["metrics"].items()}
    if args.trace:
        values.update(selftime.per_layer(trace_path))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            value, unit = values[m["name"]]
        elif m["name"].startswith("selftime."):
            # A span kind the traced run never entered took no time.
            value, unit = 0.0, m["unit"]
        else:
            return fail("skute_bench did not report " + m["name"])
        if unit != m["unit"]:
            return fail("%s is in %s, BENCHMARK.json says %s"
                        % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": proc.returncode == 0 and result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
