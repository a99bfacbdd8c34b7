#!/usr/bin/env python3
"""Pipeline benchmark entry point.

    python3 pipeline_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the karousos library, the karousos CLI
and the pipeline_bench binary from source into .bench_build/pipeline_bench (a
Release build; only the first run in a checkout compiles), runs pipeline_bench,
and passes its output through. The last line of standard output is its JSON
result. Temporary files go to .bench_work/ and are removed; traced runs leave
their spans in .bench_out/.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        # Nothing the command started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def build(root):
    for needed in ("src/CMakeLists.txt", "tools/karousos_cli.cc"):
        if not os.path.exists(os.path.join(root, needed)):
            log(f"run.py: {needed} not found; run from the repository root")
            return None
    build_dir = os.path.join(root, ".bench_build", "pipeline_bench")
    started = time.monotonic()
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target", "pipeline_bench",
                  "karousos_cli"])
    for step in steps:
        try:
            code, out = run_group(step, BUILD_TIMEOUT_S, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except subprocess.TimeoutExpired:
            log("run.py: build timed out")
            return None
        if code != 0:
            log(out)
            log(f"run.py: build step failed: {' '.join(step)}")
            return None
    log(f"run.py: build up to date in {time.monotonic() - started:.1f} s")
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = build(root)
    if build_dir is None:
        return 1

    work_dir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [os.path.join(build_dir, "pipeline_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--karousos", os.path.join(build_dir, "karousos"),
           "--work-dir", work_dir, "--out-dir", os.path.join(root, ".bench_out")]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        log("run.py: pipeline_bench timed out")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n") if out else []
    if code != 0 or not lines:
        sys.stdout.write(out or "")
        log(f"run.py: pipeline_bench exited {code}")
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                        "metrics"}:
        log("run.py: pipeline_bench printed no result")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
