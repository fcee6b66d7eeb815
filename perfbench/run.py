#!/usr/bin/env python3
"""Service-path benchmark of the nusys synthesis service.

Builds the library and the benchmark driver from source (CMakeLists.txt
beside this file) into .bench_build/perfbench under the repository root,
then runs one workload with one seed:

    python3 perfbench/run.py --workload cold_execute --seed 1 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics; with --trace 1 the
per-layer ledger, whose spans it also writes to
.bench_build/perfbench/traces/. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. A failed build, a
failed request check or a broken workload-shape guard exits non-zero
without that line.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"

# Set-up time is sampled in this many extra fresh processes besides the
# measured one, and reported as the median of all samples.
SETUP_SAMPLES = 8
BUILD_TIMEOUT_S = 850
SETUP_TIMEOUT_S = 30


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"the library sources are missing under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_driver", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")


def drive(args, timeout):
    """Runs the driver; returns (lines before the result, result dict)."""
    try:
        done = subprocess.run([str(DRIVER), *args], stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {timeout} s")
    if done.returncode != 0:
        fail(f"driver exited {done.returncode}", done.returncode)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        return lines[:-1], json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("driver printed no result")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_execute", "warm_execute", "cold_tiled"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    options = parser.parse_args()
    if options.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    common = ["--workload", options.workload, "--seed", str(options.seed),
              "--seconds", str(options.seconds)]
    run_timeout = options.seconds + 60

    if options.trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        out = traces / f"{options.workload}-seed{options.seed}.jsonl"
        lines, result = drive([*common, "--trace", "1", "--trace-out",
                               str(out)], run_timeout)
        lines.append(f"spans written to {out.relative_to(ROOT)}")
    else:
        setup = []
        for _ in range(SETUP_SAMPLES):
            _, sample = drive([*common, "--setup-only"], SETUP_TIMEOUT_S)
            setup.append(sample["setup_s"])
        lines, result = drive([*common, "--trace", "0"], run_timeout)
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
        lines.append("setup_s samples: " +
                     " ".join(f"{s:.4f}" for s in setup))
    for line in lines:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
