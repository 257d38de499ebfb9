#!/usr/bin/env python3
"""Build the repository and the benchmark program (hdbench), then run one workload.

    python3 perfbench/run.py --workload sweep|fleet|tenants|service \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The repository is configured and built as
its own top-level CMake project (Release) under the build directory
($CARGO_TARGET_DIR, default .bench_build); perfbench/CMakeLists.txt then
builds hdbench against the libraries that build produced. Build output
goes to stderr; hdbench's JSON result is the last line of stdout.
Journals and checkpoint frames go to a per-process directory under the build
directory, removed when the run ends.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sweep", "fleet", "tenants", "service")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_build_step(command):
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(command))


def build(root, build_root):
    repo_build = os.path.join(build_root, "hd")
    bench_build = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(repo_build, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", root, "-B", repo_build, "-DCMAKE_BUILD_TYPE=Release"])
    # hd_svc depends on every other library target.
    run_build_step(["cmake", "--build", repo_build, "--target", "hd_svc", "-j", jobs])
    if not os.path.exists(os.path.join(bench_build, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", os.path.join(root, "perfbench"), "-B", bench_build,
                        "-DCMAKE_BUILD_TYPE=Release", "-DHD_SOURCE_DIR=" + root,
                        "-DHD_BUILD_DIR=" + repo_build])
    run_build_step(["cmake", "--build", bench_build, "-j", jobs])
    return os.path.join(bench_build, "hdbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", os.path.join("src", "core"), "perfbench"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"no '{needed}' here: run from the root of a hyperdrive checkout")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_root)
    state_dir = os.path.join(build_root, f"state-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--state-dir", state_dir]
    child = subprocess.Popen(command)
    try:
        status = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    sys.exit(status)


if __name__ == "__main__":
    main()
