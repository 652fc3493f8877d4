#!/usr/bin/env python3
"""The stcfa benchmark: builds the driver and the load generator from
source, then runs one workload.

    python3 perfbench/run.py --workload cli_export|serve_query|serve_edit \
        --seed N --seconds S --trace 0|1

Run it from the root of a source tree.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under that root; build output goes to stderr, so the
last line on stdout is the benchmark's JSON result.  See perfbench/README.md.
"""

import argparse
import ctypes
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli_export", "serve_query", "serve_edit")


def build(build_dir):
    """Configures (once) and builds the driver and the load generator."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench", "stcfa"],
                   stdout=sys.stderr, check=True)


def reap_orphans():
    """Waits for every descendant that outlived its parent (this process
    is their subreaper), so nothing the benchmark started keeps running."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # PR_SET_CHILD_SUBREAPER: orphaned daemons re-parent to us, not init.
    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    work_dir = os.path.join(build_dir, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--stcfa", os.path.join(build_dir, "stcfa", "driver", "stcfa"),
           "--workdir", work_dir]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        reap_orphans()
    return code


if __name__ == "__main__":
    sys.exit(main())
