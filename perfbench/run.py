#!/usr/bin/env python3
"""Builds and runs the end-to-end protocol-run benchmark.

    python3 perfbench/run.py --workload honest_scale --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the library from src/ plus perfbench/*.cpp) in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls only
re-check the build. The benchmark's stdout is passed through unchanged: its
last line is the JSON result. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("honest_scale", "signed_fleet", "adversarial_zoo")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BENCH_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")) / "perfbench"
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    binary = build_dir / "e2e_bench"
    if not binary.is_file():
        fail(f"benchmark binary missing after build: {binary}")
    return binary


def fixed_layout_prefix():
    """Command prefix that turns address-space randomisation off.

    With it on, the same run's time moves by up to 30 % from one process to
    the next (heap and stack placement); with it off, a few per cent.
    """
    setarch = shutil.which("setarch")
    if setarch and subprocess.run([setarch, "-R", "true"], capture_output=True,
                                  check=False).returncode == 0:
        return [setarch, "-R"]
    print("perfbench: setarch -R unavailable; running with ASLR on", file=sys.stderr)
    return []


def run_bench(binary, args):
    """Runs the benchmark; returns (stdout text, parsed last-line result)."""
    try:
        done = subprocess.run([*fixed_layout_prefix(), str(binary), *args],
                              stdout=subprocess.PIPE, text=True,
                              timeout=BENCH_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {BENCH_TIMEOUT_S} s: {' '.join(args)}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited with {done.returncode}: {' '.join(args)}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"malformed result line: {lines[-1]}")
    return done.stdout, result


def lines_with(stdout, prefix):
    return [line[len(prefix):] for line in stdout.splitlines() if line.startswith(prefix)]


def digest_of(stdout):
    return json.loads(lines_with(stdout, "OUTCOME_DIGEST ")[0])["sha256"]


def self_test(binary):
    """Tiny-mode checks (m = 8, a couple of runs per workload)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(condition, message):
        if not condition:
            problems.append(message)

    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "7", "--seconds", "0.2", "--tiny"]
        results = {}
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            stdout, result = run_bench(binary, [*base, "--trace", trace])
            results[trace] = (stdout, result)
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace {trace}: outcome checks failed")
            # Every named metric is emitted, with its unit and nothing extra.
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in listed}
            expect(got == want, f"{workload} trace {trace}: metrics {got} != {want}")
            expect(any(line.startswith("fail_ratio 0 ratio") for line in
                       lines_with(stdout, "METRIC ")),
                   f"{workload} trace {trace}: fail_ratio line missing or non-zero")

        # Traced and untraced passes agree byte for byte on outcomes.
        expect(digest_of(results["0"][0]) == digest_of(results["1"][0]),
               f"{workload}: traced digest differs from untraced")

        # The same seed repeats the digest and every count.
        stdout, result = run_bench(binary, [*base, "--trace", "1"])
        expect(digest_of(stdout) == digest_of(results["1"][0]),
               f"{workload}: same seed, different digest")
        for m in spec["per_layer"]:
            if m["unit"] in ("count", "bytes") and not m["name"].startswith("protocol.bytes"):
                a = results["1"][1]["metrics"][m["name"]]["value"]
                b = result["metrics"][m["name"]]["value"]
                expect(a == b, f"{workload}: same seed, {m['name']} {a} != {b}")
        other, _ = run_bench(binary, [*base[:2], "--seed", "8", *base[4:], "--trace", "0"])
        expect(digest_of(other) != digest_of(results["0"][0]),
               f"{workload}: a different seed gave the same digest")

        # A tampered outcome trips the check.
        stdout, result = run_bench(binary, [*base, "--trace", "0", "--tamper"])
        expect(not result["correct"] and result["failed"] >= 1,
               f"{workload}: tampered outcome passed the checks")
        expect(not any(line.startswith("fail_ratio 0 ") for line in
                       lines_with(stdout, "METRIC ")),
               f"{workload}: tampered outcome left fail_ratio at 0")

    for problem in problems:
        print(f"SELF-TEST FAIL {problem}")
    print("SELF-TEST " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (BENCHMARK.json's command pins the default)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.workload is None:
        parser.error("--workload is required")
    stdout, _ = run_bench(binary, ["--workload", args.workload, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", args.trace])
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
