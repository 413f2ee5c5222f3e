#!/usr/bin/env python3
"""Build dgxbench from this checkout's sources, then run one workload.

    python3 dgxbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/dgxbench (default .bench_build/dgxbench) and is
incremental, so only the first run of a checkout compiles. cmake's
output goes to stderr: dgxbench's JSON result stays the last line of
stdout. A traced run also writes its Chrome trace beside the build as
trace-<workload>-<seed>.json. Exits 2 without a result when the
checkout has no dgxsim sources or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "dgxbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "dgxbench"],
                   stdout=sys.stderr, check=True)
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    for need in ("src/CMakeLists.txt", "results/baseline.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"dgxbench: {need} missing; run from a dgxsim checkout",
                  file=sys.stderr)
            return 2
    try:
        build_dir = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"dgxbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "dgxbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-file", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
