#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 pfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the pufferfish library and the pfbench
program from source (CMake, into $CARGO_TARGET_DIR or .bench_build), runs one
workload, and relays the program's output; the last stdout line is the JSON
result. Build output goes to stderr. Exits non-zero, without a result line,
when the sources are missing or the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train-rn18", "train-dp4", "serve-fleet")
RUN_TIMEOUT_S = 170


def build(build_root):
    build_dir = os.path.join(build_root, "pfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "pfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "pfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"pfbench: build failed: {e}", file=sys.stderr)
        return 1

    # Training stages run single-threaded per process/worker; the serving
    # stage raises the pool to its two fleet workers itself.
    env = dict(os.environ, PF_THREADS="1")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_root, "pfbench-run")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("pfbench: run timed out", file=sys.stderr)
        return 1
    out = proc.stdout.rstrip("\n")
    if proc.returncode != 0:
        sys.stderr.write(out + "\n")
        print(f"pfbench: benchmark program exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("pfbench: malformed result line", file=sys.stderr)
        return 1
    print(out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
