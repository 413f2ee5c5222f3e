#!/usr/bin/env python3
"""Check a dgxbench --trace 1 run.

    python3 dgxbench/check_trace.py TRACE.json STDOUT.txt BENCHMARK.json

TRACE.json is the run's Chrome trace and STDOUT.txt its standard
output. Checks that every span nests inside its parent without
overlapping a sibling, that every self time (duration minus the
children's) is non-negative, that the self times of each op's spans
sum to the op's duration, and that the run reported exactly the
per-layer metrics BENCHMARK.json lists and verified every op.
Exits 1 with a message on the first violation.
"""

import json
import sys


def ns(value):
    """Trace times are microseconds with nanosecond decimals."""
    return round(value * 1000)


def check(trace_path, stdout_path, bench_path):
    events = json.load(open(trace_path))["traceEvents"]
    spans = {}
    for e in events:
        a = e["args"]
        spans[a["id"]] = (e["name"], ns(e["ts"]), ns(e["ts"]) + ns(e["dur"]),
                          a["parent"], a["op"])
    children = {i: [] for i in spans}
    for i, (_, _, _, parent, op) in spans.items():
        if parent >= 0:
            if parent not in spans or spans[parent][4] != op:
                return f"span {i}: parent {parent} missing or in another op"
            children[parent].append(i)

    self_ns = {}
    for i, (name, start, end, _, _) in spans.items():
        kids = sorted(children[i], key=lambda k: spans[k][1])
        cursor = start
        for k in kids:
            if spans[k][1] < cursor or spans[k][2] > end:
                return f"span {k} ({spans[k][0]}) escapes or overlaps in {name}"
            cursor = spans[k][2]
        self_ns[i] = (end - start) - sum(spans[k][2] - spans[k][1] for k in kids)
        if self_ns[i] < 0:
            return f"span {i} ({name}) has negative self time"

    totals = {}
    for i, (_, _, _, _, op) in spans.items():
        totals[op] = totals.get(op, 0) + self_ns[i]
    ops = 0
    for i, (name, start, end, parent, op) in spans.items():
        if parent < 0:
            ops += name == "op"
            if totals[op] != end - start:
                return f"op {op}: self times sum to {totals[op]} ns, not {end - start}"
    if ops == 0:
        return "no workload op spans in the trace"

    result = json.loads(open(stdout_path).read().strip().splitlines()[-1])
    want = {m["name"] for m in json.load(open(bench_path))["per_layer"]}
    got = set(result["metrics"])
    if got != want:
        return f"per-layer metrics differ: missing {sorted(want - got)}, extra {sorted(got - want)}"
    if not result["correct"] or result["failed"]:
        return f"{result['failed']} of {result['attempted']} ops failed"
    print(f"trace ok: {len(spans)} spans, {ops} ops, {len(got)} per-layer metrics")
    return None


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    error = check(*sys.argv[1:])
    if error:
        print(f"check_trace: {error}", file=sys.stderr)
        sys.exit(1)
