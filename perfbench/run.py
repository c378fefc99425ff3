#!/usr/bin/env python3
"""Build and run the BATON benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload read-10k --seed 2005 --seconds 12 --trace 0

Builds perfbench/baton_bench.exe with dune into .bench_build (the shared
dune cache is off, so nothing is written outside the checkout), runs it,
and checks that the metrics it reports are exactly the ones BENCHMARK.json
lists for the mode: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1. Its output passes through; the last line of stdout is the
result object. Exits non-zero without a result if the checkout cannot be
built or the reported metrics do not match.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = "perfbench/baton_bench.exe"


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2005)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no dune-project or lib/ here: run from the repository root")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    build_dir = os.path.abspath(BUILD_DIR)
    env = dict(os.environ, XDG_CACHE_HOME=os.path.join(build_dir, "xdg-cache"))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--cache=disabled", "--profile", "release", "./" + EXE],
        env=env, stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        fail("build failed")

    result_file = os.path.join(build_dir, "result-%s.json" % args.workload)
    run = subprocess.run(
        [os.path.join(build_dir, "default", EXE),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--json", result_file],
        stdout=subprocess.PIPE, text=True, timeout=170)
    lines = run.stdout.splitlines()
    if not lines:
        fail("benchmark printed nothing (exit %d)" % run.returncode)
    result = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wanted = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        fail("reported metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(wanted) - set(got)), sorted(set(got) - set(wanted))), 3)

    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
