#!/bin/sh
# Simulator-speed gate: build dgxbench at BASE and from this checkout,
# then run dgxbench/compare.sh on the two builds for 3 alternating
# pairs. Every workload, end-to-end metric, bound and verdict rule
# comes from BENCHMARK.json through compare.sh, so the gate judges a
# change the way the benchmark does. Exits 1 when any metric reads
# "regression" or any op fails verification.
#
# BASE is the merge-base with the target branch for a pull request
# and the first parent for a push. It is checked out as a temporary
# git worktree at $tmp/b, and this checkout is reached through the
# symlink $tmp/c, so both builds compile source paths of one length
# (dgxbench bakes <source>/results in, and peak RSS moves with it);
# each builds into its own directory under $tmp.
#
# Usage: tools/perf_gate.sh BASE
set -eu
if [ $# -ne 1 ]; then
    sed -n '2,16p' "$0" >&2
    exit 2
fi
repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
base=$(git -C "$repo" rev-parse --verify "$1^{commit}")
tmp=$(mktemp -d)
trap 'git -C "$repo" worktree remove --force "$tmp/b" 2>/dev/null;
      rm -rf "$tmp"' EXIT
git -C "$repo" worktree add --quiet --detach "$tmp/b" "$base"
ln -s "$repo" "$tmp/c"

build() {
    cmake -S "$1/dgxbench" -B "$2" -DCMAKE_BUILD_TYPE=Release >&2
    cmake --build "$2" -j4 --target dgxbench >&2
}
build "$tmp/b" "$tmp/b-build"
build "$tmp/c" "$tmp/c-build"
echo "perf_gate: $(git -C "$repo" rev-parse --short "$base") vs this" \
    "checkout, 3 pairs" >&2
"$repo/dgxbench/compare.sh" "$tmp/b-build" "$tmp/c-build" 3
