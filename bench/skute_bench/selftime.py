#!/usr/bin/env python3
"""Self-time reducer for skute_bench's Chrome traces.

    python3 bench/skute_bench/selftime.py TRACE.json

A span's self time is its duration minus the part of it that child spans on
the same thread cover. Spans of one kind never count as each other's
children: open-loop client ops overlap without nesting.

Rows are printed as `selftime.<cat>/<name> <ms> <unit>`. The per-layer
metrics of BENCHMARK.json name the same rows `selftime.<cat>.<name>`:
  - bench/setup is reported per set-up and bench/client_op per op;
  - every other span is reported per measured Step: only spans that start
    inside a bench/step span count, divided by the traced Step count, so
    the quiet epochs inside set-up do not inflate the per-epoch numbers.
"""

import bisect
import json
import sys
from collections import defaultdict

PER_OCCURRENCE = {"bench/setup": "ms/setup", "bench/client_op": "ms/op"}


def _self_times(events):
    """Yields (event, self_us) for every complete ('X') event."""
    by_tid = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            by_tid[e["tid"]].append(e)
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end_us, key, child_us, event]
        for e in spans:
            start, end = e["ts"], e["ts"] + e["dur"]
            key = (e["cat"], e["name"])
            while stack and stack[-1][0] <= start:
                done = stack.pop()
                yield done[3], done[3]["dur"] - done[2]
            if stack and stack[-1][1] != key:
                stack[-1][2] += min(end, stack[-1][0]) - start
            stack.append([end, key, 0.0, e])
        while stack:
            done = stack.pop()
            yield done[3], done[3]["dur"] - done[2]


def reduce_trace(path):
    """Returns {"cat/name": {"self_ms", "count", "step_self_ms"}} and the
    number of traced Steps."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    steps = sorted((e["ts"], e["ts"] + e["dur"]) for e in events
                   if e.get("ph") == "X" and e["cat"] == "bench"
                   and e["name"] == "step")
    starts = [s for s, _ in steps]
    rows = defaultdict(lambda: {"self_ms": 0.0, "count": 0,
                                "step_self_ms": 0.0})
    for e, self_us in _self_times(events):
        row = rows[e["cat"] + "/" + e["name"]]
        row["self_ms"] += self_us / 1000.0
        row["count"] += 1
        i = bisect.bisect_right(starts, e["ts"]) - 1
        if i >= 0 and e["ts"] < steps[i][1]:
            row["step_self_ms"] += self_us / 1000.0
    return dict(rows), len(steps)


def per_layer(path):
    """Per-layer metrics {name: (value, unit)} of one trace."""
    rows, steps = reduce_trace(path)
    out = {}
    for key, row in rows.items():
        name = "selftime." + key.replace("/", ".")
        if key in PER_OCCURRENCE:
            out[name] = (row["self_ms"] / row["count"], PER_OCCURRENCE[key])
        else:
            out[name] = (row["step_self_ms"] / steps if steps else 0.0,
                         "ms/epoch")
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    metrics = per_layer(argv[1])
    for name in sorted(metrics, key=lambda n: -metrics[n][0]):
        value, unit = metrics[name]
        cat_name = name[len("selftime."):]
        print("selftime.%s %.6g %s" % (cat_name.replace(".", "/", 1), value,
                                       unit))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
