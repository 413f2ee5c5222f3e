#!/bin/sh
# Regenerate every output of results/baselines.manifest (the golden
# grids and the paper's tables and figures) into <build-dir>/golden
# and require each to match its committed file byte for byte; any
# other file in results/ with no manifest line fails too, so no output
# can drop out of the gate unnoticed.
# Then replay the paper grid with every other axis named at its
# default, which must not move a byte either.
# Registered as the dgxprof_golden_baselines ctest; on drift the
# regenerated files stay in <build-dir>/golden for the diff.
#
# Usage: tools/check_baselines.sh [build-dir]
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
builddir=${1:-"$repo/build"}
out="$builddir/golden"

rm -rf "$out"
"$repo/tools/refresh_baseline.sh" "$builddir" "$out"
status=0
count=0
for regen in "$out"/*; do
    count=$((count + 1))
    cmp "$regen" "$repo/results/${regen##*/}" || status=1
done
for committed in "$repo"/results/*; do
    [ "${committed##*/}" = baselines.manifest ] && continue
    if [ ! -e "$out/${committed##*/}" ]; then
        echo "results/${committed##*/} has no line in" \
            "results/baselines.manifest" >&2
        status=1
    fi
done

args=$(sed -n 's/^baseline\.json //p' "$repo/results/baselines.manifest")
# shellcheck disable=SC2086
"$builddir/tools/dgxprof" campaign $args --mode sync_dp --platform dgx1v \
    --nodes 1 --interconnect ib100 --netalgo ring --microbatches 0 \
    --scheduler fifo --compression none \
    --json "$out/baseline.json.replay" --quiet >/dev/null
cmp "$out/baseline.json.replay" "$repo/results/baseline.json" || status=1

[ "$status" -eq 0 ] && echo "all $count committed outputs byte-identical"
exit "$status"
