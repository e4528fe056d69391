#!/usr/bin/env python3
"""Builds and runs the glsc-sim host-performance benchmark.

    python3 bench/hostperf/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds
the simulator library and the glsc-hostperf binary in Release (GLSC_CHECK
off) under .bench_build/hostperf; later calls only re-check the build.
Every argument goes to glsc-hostperf, which parses it strictly.  The last
stdout line is glsc-hostperf's JSON result, printed only after its metric
names and units are checked against BENCHMARK.json.  Any failure exits
non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BUILD = os.path.join(".bench_build", "hostperf")
OUT = os.path.join(BUILD, "out")


def fail(msg, code=1):
    print(f"hostperf/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("src/CMakeLists.txt", "bench/hostperf/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail(f"{needed} not found: run from a glsc-sim checkout", 2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "bench/hostperf", "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "glsc-hostperf",
           "--parallel", "3"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    group = bench["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main(argv):
    os.chdir(ROOT)
    build()
    os.makedirs(OUT, exist_ok=True)
    exe = os.path.join(BUILD, "glsc-hostperf")
    proc = subprocess.run([exe] + argv + ["--out-dir", OUT],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"glsc-hostperf exited {proc.returncode}", proc.returncode)
    *report, last = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(report), flush=True)
    result = json.loads(last)
    trace = argv[argv.index("--trace") + 1] == "1"
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, or units differ")
    print(last)


if __name__ == "__main__":
    main(sys.argv[1:])
