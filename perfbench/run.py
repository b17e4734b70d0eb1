#!/usr/bin/env python3
"""Build and run the benchmark named in BENCHMARK.json.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds perfbench/main.exe with
dune into .bench_build (no shared dune cache), runs it, echoes its
report, and checks that the last line is the JSON result carrying
exactly the metrics BENCHMARK.json lists for the chosen mode.

With --trace 1 the budget is split between two processes: an untraced
run, then a traced one. Each heap peak is then its own pass's. The
overhead.* metrics are the traced process's end-to-end figures minus
the untraced one's, and run.py prints the combined result last.

Exits non-zero, without a result line, when the checkout has no sources
to build, the build fails, an output check fails, or the runs overrun
their time limit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_LIMIT_S = 170
SOURCE_DIRS = ("lib", "bin", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """The commit when the checkout is a git work tree, else a digest of
    the sources the benchmark builds from."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(os.getcwd()):
            return lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    h = hashlib.sha256()
    for top in ("dune-project",) + SOURCE_DIRS:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def expected_metrics(key):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[key]}


def run_exe(args, seconds, trace, commit, deadline):
    """Run main.exe once, echo its report, and return its JSON result."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_LIMIT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        return json.loads(out.rstrip("\n").split("\n")[-1])
    except ValueError:
        fail("last line is not a JSON result")


def with_overhead(plain, traced):
    """The traced result, its end-to-end figures replaced by overhead.*
    = traced - untraced."""
    e2e = expected_metrics("end_to_end")
    metrics = {k: v for k, v in traced["metrics"].items() if k not in e2e}
    for name, unit in e2e.items():
        metrics["overhead." + name] = {
            "value": traced["metrics"][name]["value"]
                     - plain["metrics"][name]["value"],
            "unit": unit}
    return {"correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no sources here: run from the root of a source checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")

    deadline = time.time() + RUN_LIMIT_S
    commit = source_digest()
    if args.trace:
        half = args.seconds / 2
        plain = run_exe(args, half, 0, commit, deadline)
        result = with_overhead(
            plain, run_exe(args, half, 1, commit, deadline))
        print(json.dumps(result), flush=True)
    else:
        result = run_exe(args, args.seconds, 0, commit, deadline)
    want = expected_metrics("per_layer" if args.trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(want.items())))
    if not result["correct"]:
        fail("an output check failed")


if __name__ == "__main__":
    main()
