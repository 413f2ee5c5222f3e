#!/bin/sh
# dgxprof smoke: every row below is one dgxprof invocation that must
# exit 0. `verify` runs a configuration twice and compares the event
# digests; `analyze --max-error 5` needs tick-exact attribution and
# every standard what-if projection within 5% of its re-simulation;
# `advise` backs its winner with a full simulation; `check --no-digest`
# gates a golden grid through timing-only runs. Every row runs, from
# the repository root, and the script fails at the end if any row did.
# CI's smoke job runs it; tools/run_audit.sh runs it again sanitized,
# with the auditor on.
#
# Usage: tools/smoke.sh [build-dir]
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
builddir=$(CDPATH= cd -- "${1:-"$repo/build"}" && pwd)
dgxprof="$builddir/tools/dgxprof"

if [ ! -x "$dgxprof" ]; then
    echo "error: $dgxprof not built" >&2
    exit 1
fi
# Rows name committed files relative to the repository root.
cd "$repo"

failures=0
while read -r row; do
    case $row in '' | '#'*) continue ;; esac
    echo "== dgxprof $row"
    # shellcheck disable=SC2086
    "$dgxprof" $row </dev/null || {
        echo "FAILED: dgxprof $row" >&2
        failures=$((failures + 1))
    }
done <<'ROWS'
# The sync paper zoo, both methods, plus the busy 8-GPU all-reduce
# config (the all-reduce path runs one ring whatever --rings says).
verify --model lenet --gpus 4 --batch 16 --method p2p
verify --model lenet --gpus 4 --batch 16 --method nccl
verify --model alexnet --gpus 4 --batch 16 --method p2p
verify --model alexnet --gpus 4 --batch 16 --method nccl
verify --model googlenet --gpus 4 --batch 16 --method p2p
verify --model googlenet --gpus 4 --batch 16 --method nccl
verify --model inception-v3 --gpus 4 --batch 16 --method p2p
verify --model inception-v3 --gpus 4 --batch 16 --method nccl
verify --model resnet-50 --gpus 4 --batch 16 --method p2p
verify --model resnet-50 --gpus 4 --batch 16 --method nccl
verify --model resnet-50 --gpus 8 --batch 32 --method nccl --allreduce --rings 2
# The async and staged strategies.
verify --model lenet --gpus 4 --batch 16 --mode async_ps
verify --model alexnet --gpus 4 --batch 16 --mode async_ps
verify --model resnet-50 --gpus 4 --batch 16 --mode async_ps
verify --model lenet --gpus 4 --batch 16 --mode model_parallel
verify --model alexnet --gpus 4 --batch 16 --mode model_parallel
verify --model resnet-50 --gpus 4 --batch 16 --mode model_parallel
verify --model alexnet --gpus 8 --batch 16 --mode model_parallel --microbatches 16
verify --model alexnet --gpus 4 --batch 16 --mode model_parallel --microbatches 8
verify --model alexnet --gpus 4 --batch 16 --mode model_parallel --microbatches 16
verify --model alexnet --gpus 4 --batch 16 --mode pipeline --microbatches 8
verify --model alexnet --gpus 4 --batch 16 --mode pipeline --microbatches 16
# The non-default platforms, up to the DGX-2's 16 GPUs.
verify --platform dgx1p --model lenet --gpus 1 --batch 16 --method p2p
verify --platform dgx1p --model lenet --gpus 1 --batch 16 --method nccl
verify --platform dgx1p --model lenet --gpus 4 --batch 16 --method p2p
verify --platform dgx1p --model lenet --gpus 4 --batch 16 --method nccl
verify --platform dgx1p --model alexnet --gpus 1 --batch 16 --method p2p
verify --platform dgx1p --model alexnet --gpus 1 --batch 16 --method nccl
verify --platform dgx1p --model alexnet --gpus 4 --batch 16 --method p2p
verify --platform dgx1p --model alexnet --gpus 4 --batch 16 --method nccl
verify --platform dgx2 --model lenet --gpus 1 --batch 16 --method p2p
verify --platform dgx2 --model lenet --gpus 1 --batch 16 --method nccl
verify --platform dgx2 --model lenet --gpus 4 --batch 16 --method p2p
verify --platform dgx2 --model lenet --gpus 4 --batch 16 --method nccl
verify --platform dgx2 --model alexnet --gpus 1 --batch 16 --method p2p
verify --platform dgx2 --model alexnet --gpus 1 --batch 16 --method nccl
verify --platform dgx2 --model alexnet --gpus 4 --batch 16 --method p2p
verify --platform dgx2 --model alexnet --gpus 4 --batch 16 --method nccl
verify --platform dgx2 --model alexnet --gpus 16 --batch 16 --method nccl
# Multi-node clusters on both inter-node schedules.
verify --model lenet --gpus 2 --batch 16 --nodes 2 --netalgo ring
verify --model lenet --gpus 2 --batch 16 --nodes 2 --netalgo tree
verify --model lenet --gpus 2 --batch 16 --nodes 4 --netalgo ring
verify --model lenet --gpus 2 --batch 16 --nodes 4 --netalgo tree
# Every gradient scheduler on both methods.
verify --model alexnet --gpus 4 --batch 16 --method p2p --overlap --scheduler fifo
verify --model alexnet --gpus 4 --batch 16 --method nccl --overlap --scheduler fifo
verify --model alexnet --gpus 4 --batch 16 --method p2p --overlap --scheduler priority
verify --model alexnet --gpus 4 --batch 16 --method nccl --overlap --scheduler priority
verify --model alexnet --gpus 4 --batch 16 --method p2p --overlap --scheduler partitioned
verify --model alexnet --gpus 4 --batch 16 --method nccl --overlap --scheduler partitioned
# Every gradient compressor, and one compressed 2-node run.
verify --model bert-base --gpus 4 --batch 16 --method nccl --compression none
verify --model bert-base --gpus 4 --batch 16 --method nccl --compression randomk
verify --model bert-base --gpus 4 --batch 16 --method nccl --compression dgc
verify --model bert-base --gpus 4 --batch 16 --method nccl --compression efsignsgd
verify --model bert-base --gpus 4 --batch 16 --method nccl --compression onebit
verify --model lstm --gpus 4 --batch 16 --method nccl --nodes 2 --compression dgc
# Critical-path attribution and validated what-if projections.
analyze --model lenet --gpus 1 --batch 16 --method p2p --what-if standard --max-error 5
analyze --model lenet --gpus 1 --batch 16 --method nccl --what-if standard --max-error 5
analyze --model lenet --gpus 4 --batch 16 --method p2p --what-if standard --max-error 5
analyze --model lenet --gpus 4 --batch 16 --method nccl --what-if standard --max-error 5
analyze --model alexnet --gpus 1 --batch 16 --method p2p --what-if standard --max-error 5
analyze --model alexnet --gpus 1 --batch 16 --method nccl --what-if standard --max-error 5
analyze --model alexnet --gpus 4 --batch 16 --method p2p --what-if standard --max-error 5
analyze --model alexnet --gpus 4 --batch 16 --method nccl --what-if standard --max-error 5
# The README's strategy search.
advise --model bert-base --gpus 8 --batch 128 --platform pcie8
# A drift-only gate: timing-only re-runs, no records, no digest.
check --baseline results/baseline_modes.json --no-digest
ROWS

if [ "$failures" -ne 0 ]; then
    echo "smoke FAILED ($failures row(s))" >&2
    exit 1
fi
echo "smoke passed"
