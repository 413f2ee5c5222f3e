#!/bin/sh
# Regenerate every committed output listed in
# results/baselines.manifest from the current build: each golden grid
# (`<file>.json <dgxprof campaign arguments>`) through dgxprof
# campaign, and each paper table or figure (`<file>.txt <program>`)
# as the stdout of its program under the build directory. Every
# output is deterministic, so the diff against the old files is
# reviewable like code.
#
# Run this ONLY when a change intentionally moves simulated numbers
# (model recalibration, cost-model fixes) and commit the refreshed
# files with it, so the golden ctest gates the next change on the new
# truth. With an output directory the files go there instead of
# results/ (the golden ctest writes them into the build tree).
#
# Usage: tools/refresh_baseline.sh [build-dir [output-dir]]
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
builddir=${1:-"$repo/build"}
outdir=${2:-"$repo/results"}
dgxprof="$builddir/tools/dgxprof"

if [ ! -x "$dgxprof" ]; then
    echo "error: $dgxprof not built" >&2
    exit 1
fi
mkdir -p "$outdir"

while read -r file args; do
    case $file in
    '' | '#'*) continue ;;
    *.txt)
        "$builddir/$args" >"$outdir/$file" </dev/null
        echo "$file refreshed ($args)"
        ;;
    *)
        # shellcheck disable=SC2086
        "$dgxprof" campaign $args --json "$outdir/$file" --quiet \
            >/dev/null </dev/null
        echo "$file refreshed ($(grep -c '"model"' "$outdir/$file") records)"
        ;;
    esac
done <"$repo/results/baselines.manifest"
