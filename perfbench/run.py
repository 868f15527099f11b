#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the library and the benchmark program from source (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build under the checkout root), then runs
one workload and passes its output through. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Workloads: local_step, remote_pipelined, service_trace. With --trace 1 the
spans of the traced repetitions are written to
<build dir>/perfbench/spans/<workload>-seed<n>.jsonl.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("local_step", "remote_pipelined", "service_trace")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir, env):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {cmd[:2]} failed: {err}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail(f"build step {' '.join(cmd[:2])} exited {proc.returncode}")


def run(cmd, root, env):
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(cmd[0])} did not finish in {RUN_TIMEOUT_S} s")
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark helpers' self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    build(root, build_dir, env)

    if args.selftest:
        sys.exit(run([os.path.join(build_dir, "perfbench_selftest")], root, env))

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    sys.exit(run(cmd, root, env))


if __name__ == "__main__":
    main()
