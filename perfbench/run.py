#!/usr/bin/env python3
"""Builds and runs the end-to-end tuning benchmark described in BENCHMARK.json.

    python3 perfbench/run.py --workload ic-serial --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run builds the library and the
benchmark (Release) under .bench_build/; later runs reuse that build. The
benchmark's scratch files and the traced run's Chrome trace go under
.bench_run/. The host and build are printed before the result; the last
line of standard output is the benchmark's JSON result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("ic-serial", "od-par", "service-mixed")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "?"


def compiler_version():
    try:
        done = subprocess.run([cmake_cache("CMAKE_CXX_COMPILER"), "--version"],
                              stdout=subprocess.PIPE, text=True)
        return done.stdout.split("\n")[0]
    except OSError:
        return "?"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "?"


def cpu_ticks():
    """(busy, steal) jiffies summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq + steal, steal


def filesystem_of(path):
    """Type and mount point of the filesystem holding `path`."""
    path = os.path.realpath(path)
    best = ("?", "")
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                mount, fstype = fields[1], fields[2]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best[1]):
                    best = (fstype, mount)
    except OSError:
        pass
    return "%s on %s" % best


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise SystemExit("perfbench: refusing a %s build" % build_type)
    run_dir = os.path.join(ROOT, ".bench_run", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    print("host: nproc %d, cpu %s" % (os.cpu_count() or 0, cpu_model()))
    print("compiler: %s, build %s" % (compiler_version(), build_type))
    print("journal and cache filesystem: %s" % filesystem_of(run_dir))
    sys.stdout.flush()

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--run-dir", run_dir,
               "--digests", os.path.join(ROOT, "perfbench", "digests.json")]
    before = cpu_ticks()
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True)
    try:
        output, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise SystemExit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = output.rstrip("\n").split("\n")
    if child.returncode != 0 or not lines:
        log(output)
        raise SystemExit("perfbench: benchmark exited %d" % child.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit("perfbench: malformed result line")
    after = cpu_ticks()
    if before and after and after[0] > before[0]:
        # A virtual machine's neighbours show up as steal: time a vCPU was
        # ready to run but the hypervisor ran something else.
        print("host steal during run: %.1f%% of busy CPU time" % (
            100.0 * (after[1] - before[1]) / (after[0] - before[0])))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
