#!/bin/sh
# Full-invariant sweep: build with ASan+UBSan plus libstdc++'s
# _GLIBCXX_ASSERTIONS (an out-of-range operator[] or a front()/back()
# on an empty container aborts) and run the complete test suite with
# the simulation auditor forced on (DGXSIM_AUDIT=1 makes every Fabric
# attach a strict sim::Auditor, so any byte conservation, capacity,
# ordering or quiescence violation anywhere in the suite aborts the
# offending test).
#
# Every audited run's exit code is propagated: the build and ctest
# phases abort the script immediately (set -e), and the smoke rows
# (tools/smoke.sh) all run to completion but any failure among them
# makes the script exit non-zero — so CI can call this script
# directly and gate on its status.
#
# Usage: tools/run_audit.sh [extra ctest args...]
set -eu
# pipefail is not POSIX; enable it where the shell has it so a
# failing producer in any future pipeline cannot be masked.
if (set -o pipefail) 2>/dev/null; then
    set -o pipefail
fi

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo"

builddir=build-asan
if cmake --list-presets >/dev/null 2>&1; then
    cmake --preset asan-ubsan
    cmake --build --preset asan-ubsan -j"$(nproc)"
else
    # Old cmake without preset support: configure manually with the
    # same flags the asan-ubsan preset uses.
    cmake -B "$builddir" -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-omit-frame-pointer -fno-sanitize-recover=all -D_GLIBCXX_ASSERTIONS" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined,float-cast-overflow"
    cmake --build "$builddir" -j"$(nproc)"
fi

echo "== ctest with DGXSIM_AUDIT=1 =="
cd "$builddir"
DGXSIM_AUDIT=1 ctest --output-on-failure -j"$(nproc)" "$@"

echo "== smoke rows (audited) =="
DGXSIM_AUDIT=1 "$repo/tools/smoke.sh" "$repo/$builddir"
echo "audit sweep passed"
