#!/usr/bin/env python3
"""Build (if needed) and run one workload of the job-stream benchmark.

    python3 jobbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Run from the repository root. The engine and the benchmark program are
compiled from source into $CARGO_TARGET_DIR (default .bench_build). The last
line of standard output is the result JSON; with --trace 1 the capture is
also written to <build dir>/traces/<workload>.json and validated with
tools/trace_report.py, and an invalid capture fails the run. See
jobbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "jobbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("jobbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "jobbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("extra", nargs="*", help="passed to the binary (--tiny, --corrupt-oracle)")
    a = p.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)] + a.extra
    trace_file = None
    if a.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        trace_file = os.path.join(out, "traces", a.workload + ".json")
        cmd += ["--trace-out", trace_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("jobbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        sys.exit("jobbench: no result line (exit code %d)" % proc.returncode)
    print("\n".join(lines[:-1]))
    ok = proc.returncode == 0
    if trace_file is not None:
        v = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "trace_report.py"),
                            "--validate-only", trace_file],
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        print(v.stdout.strip())
        if v.returncode != 0:
            result["correct"] = False
            ok = False
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
