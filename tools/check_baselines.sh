#!/bin/sh
# Regenerate every golden grid of results/baselines.manifest into
# <build-dir>/golden and require each to match its committed file
# byte for byte. Then replay the paper grid with the scheduler and the
# compressor pinned to their defaults, which must not move a byte
# either. Registered as the dgxprof_golden_baselines ctest; on drift
# the regenerated files stay in <build-dir>/golden for the diff.
#
# Usage: tools/check_baselines.sh [build-dir]
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
builddir=${1:-"$repo/build"}
out="$builddir/golden"

rm -rf "$out"
"$repo/tools/refresh_baseline.sh" "$builddir" "$out"
status=0
for regen in "$out"/*.json; do
    cmp "$regen" "$repo/results/${regen##*/}" || status=1
done

args=$(sed -n 's/^baseline\.json //p' "$repo/results/baselines.manifest")
# shellcheck disable=SC2086
"$builddir/tools/dgxprof" campaign $args --scheduler fifo \
    --compression none --json "$out/baseline.json.replay" --quiet \
    >/dev/null
cmp "$out/baseline.json.replay" "$repo/results/baseline.json" || status=1

[ "$status" -eq 0 ] && echo "golden grids byte-identical"
exit "$status"
