#!/usr/bin/env python3
"""Build and run the simulator benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N]

Builds perfbench/main.exe with dune, runs one workload and passes its output
through: every metric on its own line, then one JSON object as the last line.
`--workload all` runs the traced cell of every workload in turn and prints
all end-to-end and per-layer metrics. The exit code is non-zero when the
build fails, a self-check fails or the output is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

TARGET = "./perfbench/main.exe"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SPANS_DIR = os.path.join("perfbench", "out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the root of a source checkout (missing %s)" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", TARGET]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed with exit code %d" % r.returncode)


def run_one(workload, seed, seconds, trace, timeout):
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans = os.path.join(SPANS_DIR, "spans-%s-seed%d-trace%d.json" % (workload, seed, trace))
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--spans", spans]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, timeout))
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        sys.stdout.write(r.stdout)
        fail("%s printed no result (exit code %d)" % (workload, r.returncode))
    return r.returncode, lines


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    build()
    if a.workload != "all":
        code, lines = run_one(a.workload, a.seed, a.seconds, a.trace, RUN_TIMEOUT_S)
        print("\n".join(lines), flush=True)
        sys.exit(code)
    names = subprocess.run([EXE, "--list"], stdout=subprocess.PIPE, text=True, check=True).stdout.split()
    worst = 0
    for name in names:
        code, lines = run_one(name, a.seed, a.seconds, 1, RUN_TIMEOUT_S)
        print("== %s (seed %d)" % (name, a.seed))
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, code)
    sys.exit(worst)


if __name__ == "__main__":
    main()
