#!/usr/bin/env python3
"""Build and run the repository benchmark.

  python3 perfbench/run.py --workload fleet_pull --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the hpcc libraries from src/) into the
directory named by CARGO_TARGET_DIR, or .bench_build when it is unset;
later calls rebuild incrementally. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. --selftest builds and
runs the benchmark's own tests of its output checks instead.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_pull", "container_start", "mixed_cluster")


def fail(msg):
    sys.stderr.write("perfbench: " + msg + "\n")
    sys.exit(2)


def parse(argv):
    if argv == ["--selftest"]:
        return None
    args = {}
    if len(argv) % 2:
        fail("arguments come in --key value pairs")
    for key, val in zip(argv[::2], argv[1::2]):
        if key not in ("--workload", "--seed", "--seconds", "--trace"):
            fail("unknown argument " + key)
        args[key[2:]] = val
    if set(args) != {"workload", "seed", "seconds", "trace"}:
        fail("need --workload, --seed, --seconds and --trace")
    if args["workload"] not in WORKLOADS:
        fail("unknown workload " + args["workload"])
    if args["trace"] not in ("0", "1"):
        fail("--trace is 0 or 1")
    if not args["seed"].isdigit() or not args["seconds"].isdigit():
        fail("--seed and --seconds are whole numbers")
    return args


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no hpcc sources under " + os.path.join(ROOT, "src"))
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    out = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=out, stderr=out, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                   + targets, stdout=out, stderr=out, check=True)
    return build_dir


def main():
    args = parse(sys.argv[1:])
    try:
        if args is None:
            build_dir = build(["perfbench_selftest"])
            return subprocess.run(
                [os.path.join(build_dir, "perfbench_selftest")]).returncode
        build_dir = build(["perfbench"])
    except subprocess.CalledProcessError as e:
        fail("build failed: " + str(e))
    cmd = [os.path.join(build_dir, "perfbench")]
    for key in ("workload", "seed", "seconds", "trace"):
        cmd += ["--" + key, args[key]]
    cmd += ["--out", os.path.join(ROOT, ".bench_out")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
