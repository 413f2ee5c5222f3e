#!/bin/sh
# Paired comparison of two dgxbench builds, e.g. a parent commit and a
# change, on every workload and end-to-end metric in BENCHMARK.json.
#
#   dgxbench/compare.sh PARENT_BUILD CHANGE_BUILD [pairs=10] [seed=1]
#
# A build is a dgxbench build directory (holding the dgxbench binary),
# e.g. <checkout>/.bench_build/dgxbench after one run.py run there.
# Pair i runs both builds with seed+i-1 for run_seconds each; the side
# that runs first alternates. Per workload and metric it prints each
# side's median and quartiles, the change's wins, and a verdict:
#   gain         wins >= 9/10 of pairs and the medians differ by more
#                than the parent's interquartile range
#   regression   change median worse than the parent's by > bound
#   unresolved   a side's IQR/median exceeds the bound, unless every
#                change run beats every parent run ("better, every run")
#   no regression  otherwise
# Exits 1 on any regression or failed op, 2 on bad arguments.
set -eu
if [ $# -lt 2 ]; then
    sed -n '2,18p' "$0" >&2
    exit 2
fi
here=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
exec python3 - "$here/../BENCHMARK.json" "$@" <<'EOF'
import json
import statistics as st
import subprocess
import sys

bench = json.load(open(sys.argv[1]))
parent, change = sys.argv[2], sys.argv[3]
pairs = int(sys.argv[4]) if len(sys.argv) > 4 else 10
seed = int(sys.argv[5]) if len(sys.argv) > 5 else 1
if pairs < 2:
    sys.exit("compare.sh: need at least 2 pairs for quartiles")


def run(build, workload, s):
    cmd = [f"{build}/dgxbench", "--workload", workload, "--seed", str(s),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if p.returncode != 0 or not result or not result["correct"]:
        sys.exit(f"compare.sh: {' '.join(cmd)} failed (exit {p.returncode})\n"
                 + p.stderr[-2000:])
    return result["metrics"]


regressions = 0
print(f"{'workload':12} {'metric':12} {'parent med [q1, q3]':30} "
      f"{'change med [q1, q3]':30} {'wins':>6}  verdict")
builds = {"parent": parent, "change": change}
for w in (x["name"] for x in bench["workloads"]):
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in sides:
            runs[side].append(run(builds[side], w, seed + i))
        print(f"compare.sh: {w} pair {i + 1}/{pairs}", file=sys.stderr)
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        lower = m["better"] == "lower"
        pv = [r[name]["value"] for r in runs["parent"]]
        cv = [r[name]["value"] for r in runs["change"]]

        def better(a, b):
            return a < b if lower else a > b

        wins = sum(better(c, p) for c, p in zip(cv, pv))
        pq, cq = st.quantiles(pv, n=4), st.quantiles(cv, n=4)
        pmed, cmed = st.median(pv), st.median(cv)
        worse_by = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
        spread = max((pq[2] - pq[0]) / pmed, (cq[2] - cq[0]) / cmed)
        if wins >= 0.9 * pairs and better(cmed, pmed) and \
                abs(cmed - pmed) > pq[2] - pq[0]:
            verdict = "gain"
        elif spread > bound:
            every = all(better(c, p) for c in cv for p in pv)
            verdict = "better, every run" if every else "unresolved"
        elif worse_by > bound:
            verdict = "regression"
            regressions += 1
        else:
            verdict = "no regression"
        unit = m["unit"]
        print(f"{w:12} {name:12} "
              f"{f'{pmed:.5g} [{pq[0]:.5g}, {pq[2]:.5g}] {unit}':30} "
              f"{f'{cmed:.5g} [{cq[0]:.5g}, {cq[2]:.5g}] {unit}':30} "
              f"{f'{wins}/{pairs}':>6}  {verdict}")
sys.exit(1 if regressions else 0)
EOF
