#!/usr/bin/env python3
"""Compares two sets of skute_bench results against BENCHMARK.json's bounds.

    python3 bench/skute_bench/compare.py BASE_DIR NEW_DIR [--all]

Each directory holds the <workload>-<rep>.json files run_all.sh writes;
runs pair up by rep. Every (workload, metric) row gets one verdict:

  better      at least 10 pairs, the new side wins at least 9 in 10 of
              them (ties count for neither), and the medians differ by more
              than the base side's interquartile range;
  worse       the new median is worse than the base median by more than
              the metric's bound;
  unresolved  either side's interquartile range, as a share of its median,
              is wider than the bound, unless every new run reads better
              than every base run or every pair reads exactly the same
              (a count that repeats exactly across seeds' pairs);
  unchanged   otherwise.

End-to-end metrics are judged against their bounds. --all adds the
per-layer metrics, judged against a 10% bound for information only. The
exit status is 1 when any end-to-end row is worse or unresolved.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

PER_LAYER_BOUND = 0.10
MIN_PAIRS_FOR_GAIN = 10
WIN_RATE_FOR_GAIN = 0.9


def load_set(directory):
    """{workload: {rep: metrics}} of the correct runs in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        match = re.match(r"(.+)-(\d+)\.json$", os.path.basename(path))
        if not match:
            continue
        with open(path) as f:
            result = json.load(f)
        if not result.get("correct", False):
            print("skipping %s: a correctness gate failed" % path,
                  file=sys.stderr)
            continue
        runs.setdefault(match.group(1), {})[int(match.group(2))] = {
            name: m["value"] for name, m in result["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, new, pairs, lower_is_better, bound):
    """Returns (verdict, change, spread, wins) for one row."""
    sign = 1.0 if lower_is_better else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)

    def share(x, of):
        return x / abs(of) if of else (0.0 if x == 0 else float("inf"))

    change = share(nm - bm, bm)  # signed; positive = new reads higher
    worse_by = sign * change
    spread = max(share(b3 - b1, bm), share(n3 - n1, nm))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN
            and wins >= WIN_RATE_FOR_GAIN * len(pairs)
            and worse_by < 0 and abs(nm - bm) > b3 - b1):
        return "better", change, spread, wins
    if worse_by > bound:
        return "worse", change, spread, wins
    if spread > bound:
        all_better = (max(new) < min(base) if lower_is_better
                      else min(new) > max(base))
        all_equal = bool(pairs) and all(b == n for b, n in pairs)
        outcome = "unchanged" if all_better or all_equal else "unresolved"
        return outcome, change, spread, wins
    return "unchanged", change, spread, wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--all", action="store_true",
                        help="also compare the per-layer metrics")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    metrics = [(m, m["bound"], True) for m in spec["end_to_end"]]
    if args.all:
        metrics += [(m, PER_LAYER_BOUND, False) for m in spec["per_layer"]]
    base, new = load_set(args.base), load_set(args.new)

    print("%-15s %-36s %28s %28s %8s %7s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "change", "spread", "wins", "verdict"))
    gating_failures = 0
    for w in [w["name"] for w in spec["workloads"]]:
        b_runs, n_runs = base.get(w, {}), new.get(w, {})
        if not b_runs or not n_runs:
            print("%-15s no runs on one side" % w)
            gating_failures += 1
            continue
        for m, bound, gating in metrics:
            name = m["name"]
            b = [r[name] for r in b_runs.values() if name in r]
            n = [r[name] for r in n_runs.values() if name in r]
            if not b or not n:
                continue
            pairs = [(b_runs[rep][name], n_runs[rep][name])
                     for rep in sorted(set(b_runs) & set(n_runs))
                     if name in b_runs[rep] and name in n_runs[rep]]
            result, change, spread, wins = verdict(
                b, n, pairs, m["better"] == "lower", bound)
            if gating and result in ("worse", "unresolved"):
                gating_failures += 1
            bq, nq = quartiles(b), quartiles(n)
            print("%-15s %-36s %28s %28s %+7.2f%% %6.2f%% %3d/%-3d %s%s" % (
                w, name + " (" + m["unit"] + ")",
                "%.5g [%.5g, %.5g]" % (bq[1], bq[0], bq[2]),
                "%.5g [%.5g, %.5g]" % (nq[1], nq[0], nq[2]),
                100.0 * change, 100.0 * spread, wins, len(pairs), result,
                "" if gating else " (per-layer)"))
    return 1 if gating_failures else 0


if __name__ == "__main__":
    sys.exit(main())
