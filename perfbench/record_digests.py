#!/usr/bin/env python3
"""Records the report digests perfbench checks job reports against.

Runs the edgetune CLI once per (workload, trial workers, edge device,
seed) with every other flag at its default, hashes the bytes `--report`
writes (FNV-1a 64, the library's stable_hash64), and writes
perfbench/digests.json together with the build fingerprint of the perfbench
binary, since report bytes depend on the compiler and the instruction set
the library was built for.

    python3 perfbench/record_digests.py --edgetune build/tools/edgetune \
        --perfbench .bench_build/perfbench/perfbench

Record from the commit whose reports are the reference, built Release.
"""
import argparse
import json
import os
import subprocess
import tempfile

# (CLI workload, trial workers, edge devices, seeds): ic-serial's and
# od-par's jobs (seeds 1..12 cover both job-seed pools in src/main.cpp) and
# service-mixed's requests.
SERVICE_DEVICES = ("rpi3b", "armv7", "i7")
JOBS = [("IC", 1, ("rpi3b",), range(1, 13)),
        ("OD", 3, ("rpi3b",), range(1, 13)),
        ("NLP", 1, SERVICE_DEVICES, range(1, 4)),
        ("SR", 1, SERVICE_DEVICES, range(1, 4))]


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--edgetune", required=True)
    parser.add_argument("--perfbench", required=True)
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "digests.json"))
    args = parser.parse_args()

    fingerprint = subprocess.run(
        [args.perfbench, "--fingerprint"], check=True, capture_output=True,
        text=True).stdout.strip()
    jobs = {}
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        for workload, workers, devices, seeds in JOBS:
            for device in devices:
                for seed in seeds:
                    subprocess.run(
                        [args.edgetune, "--workload", workload,
                         "--trial-workers", str(workers), "--edge-device",
                         device, "--seed", str(seed), "--report", report],
                        check=True, stdout=subprocess.DEVNULL)
                    with open(report, "rb") as f:
                        key = "%s %d %s %d" % (workload, workers, device, seed)
                        jobs[key] = fnv1a64(f.read())
                    print(key, jobs[key], flush=True)
    with open(args.out, "w") as f:
        json.dump({"fingerprint": fingerprint, "jobs": jobs}, f, indent=2,
                  sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
