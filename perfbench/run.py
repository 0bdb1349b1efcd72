#!/usr/bin/env python3
"""CellBricks simulator benchmark: build cbperf, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (the simulator libraries from src/ plus the cbperf binary) into
.bench_build/; later calls rebuild incrementally. cbperf's report goes
to stdout and its last line is the result JSON:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics and --trace 1 the per-layer ones
(Chrome trace-event JSON of the spans goes to .bench_build/traces/). The
exit code is non-zero when a build fails, an output check fails, or a run
disagrees with an earlier run of the same build, workload and seed (the
fingerprint store is .bench_build/fingerprints.json).

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_BUILD, "cbperf")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", CMAKE_BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", CMAKE_BUILD, "--target", "cbperf", "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                             timeout=BUILD_TIMEOUT_S)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))


def check_witness(line):
    """Compare this run's fingerprint with the stored one for the same key.

    The key holds the cbperf binary's digest, so only runs of the same build
    are compared and a rebuild after an intended behaviour change starts over.
    """
    _, workload, seed, params, fingerprint = line.split()
    with open(BINARY, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    key = "|".join((workload, seed, params, build_id))
    path = os.path.join(BUILD, "fingerprints.json")
    store = {}
    if os.path.exists(path):
        with open(path) as f:
            store = json.load(f)
    if key in store:
        return store[key] == fingerprint
    store[key] = fingerprint
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(store, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = res.stdout.rstrip("\n").split("\n")
    if len(lines) < 2 or not lines[-2].startswith("witness "):
        sys.stdout.write(res.stdout)
        fail("cbperf exited with code %d and no result" % res.returncode)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    # The metric set must be exactly the one BENCHMARK.json declares.
    want = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items())))

    if not check_witness(lines[-2]):
        print("CHECK FAILED: fingerprint differs from an earlier run with the same seed")
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and res.returncode == 0 else 1)


if __name__ == "__main__":
    main()
