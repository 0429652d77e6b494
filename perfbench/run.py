#!/usr/bin/env python3
"""Build and run the wall-clock benchmark.

    python3 perfbench/run.py --workload fw_apsp --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark under .bench_build/perfbench (Release, the root
CMakeLists' own flags); later runs only rebuild what changed. The last line
of standard output is the result JSON printed by the benchmark binary.

Extra flags: --smoke (tiny sizes), --corrupt (self-test: damage one checked
output entry, which the run must count as failed).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("fw_apsp", "fw_fine_dataflow", "gap_wavefront", "serve_mixed")
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def checkout_env():
    """Compiler and program temporaries stay inside the checkout."""
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build():
    """Configure once, then build the benchmark target; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("library sources not found next to perfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=checkout_env(), stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def git_sha():
    """The commit of this checkout, or 'unknown' outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--corrupt", action="store_true")
    a = p.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace, "--out-dir", OUT_DIR]
    if a.smoke:
        cmd.append("--smoke")
    if a.corrupt:
        cmd.append("--corrupt")
    env = checkout_env()
    # Four pool threads and no OpenMP team: never more runnable threads
    # than the 4-CPU host has.
    env["OMP_NUM_THREADS"] = "1"
    env["PERFBENCH_GIT_SHA"] = git_sha()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("benchmark timed out")
        return 1


if __name__ == "__main__":
    sys.exit(main())
