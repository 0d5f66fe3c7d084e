#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --distinct-rate <qps> --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --distinct-rate <qps> --workload all --seed <n> --seconds <s>

A single workload prints the harness's output and, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. `all` runs every
workload untraced and traced and prints one row per workload with every
end-to-end metric, its unit, and the gate result; the traced runs'
per-layer metrics and span dumps are written under the build directory's
results/ folder.

The harness is built from source with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) on first use.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-repeat", "serve-distinct", "ingest-refresh", "offline-analyst"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the uuq sources (CMakeLists.txt, src/) are not next to perfbench/")
    build_dir = os.path.join(build_root(), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return os.path.join(build_dir, "perfbench")


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_one(binary, workload, seed, seconds, trace, rate, echo):
    """Runs one workload; returns (exit code, parsed last-line JSON or None)."""
    out_dir = os.path.join(build_root(), "results",
                           "%s-seed%d-trace%d" % (workload, seed, trace))
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--distinct-rate", str(rate), "--out", out_dir,
           "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if echo:
        for line in lines[:-1] if result is not None else lines:
            print(line)
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--distinct-rate", type=float, required=True,
                        help="serve-distinct open-loop offered rate (queries/s)")
    args = parser.parse_args()

    binary = build()
    selftest = subprocess.run([binary, "--self-test"], capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail("self-test failed")

    if args.workload != "all":
        code, result = run_one(binary, args.workload, args.seed, args.seconds,
                               args.trace, args.distinct_rate, echo=True)
        if result is None:
            fail("%s printed no result (exit code %d)" % (args.workload, code))
        print(json.dumps(result))
        sys.exit(code)

    rows, ok = [], True
    for workload in WORKLOADS:
        code, result = run_one(binary, workload, args.seed, args.seconds, 0,
                               args.distinct_rate, echo=False)
        tcode, traced = run_one(binary, workload, args.seed, args.seconds, 1,
                                args.distinct_rate, echo=False)
        if result is None or traced is None:
            fail("%s printed no result" % workload)
        gate = code == 0 and tcode == 0 and result["correct"] and traced["correct"]
        ok = ok and gate
        rows.append((workload, result, gate))
    for workload, result, gate in rows:
        cells = ["%s=%.6g %s" % (name, m["value"], m["unit"])
                 for name, m in result["metrics"].items()]
        print("%-16s %s | attempted=%d failed=%d | gate=%s" % (
            workload, "  ".join(cells), result["attempted"], result["failed"],
            "pass" if gate else "FAIL"))
    print("per-layer metrics and span dumps: %s" % os.path.join(build_root(), "results"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
