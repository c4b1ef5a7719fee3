#!/usr/bin/env python3
"""Self-test of the job-stream benchmark.

    python3 jobbench/selftest.py

Run from the repository root; builds through jobbench/run.py. Checks that
  1. a tiny-size run of every workload (those in BENCHMARK.json and
     tenants_tcp) exits 0 and prints exactly the metrics BENCHMARK.json
     names, each with its unit: the end-to-end metrics without
     tracing, the per-layer metrics with it (and the trace validates);
  2. a deliberately wrong oracle makes the run fail: non-zero exit, the
     result says correct=false, and every timed job counts as failed.
Exits non-zero on the first check that does not hold.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace), "--", "--tiny"] + list(extra)
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    last = p.stdout.rstrip("\n").split("\n")[-1]
    try:
        return p.returncode, json.loads(last)
    except ValueError:
        return p.returncode, None


def fail(msg):
    sys.exit("selftest FAILED: " + msg)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # tenants_tcp is not in BENCHMARK.json (see README.md) but must still work.
    for w in [x["name"] for x in bench["workloads"]] + ["tenants_tcp"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result = run(w, trace)
            if rc != 0 or result is None or not result["correct"]:
                fail("%s --trace %d: exit %d, result %r" % (w, trace, rc, result))
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail("%s --trace %d: metrics differ from BENCHMARK.json %s: missing %s, "
                     "extra %s, units %s" %
                     (w, trace, key, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                      sorted(k for k in want if k in got and got[k] != want[k])))
            if result["failed"] != 0 or result["attempted"] < 1:
                fail("%s --trace %d: %r" % (w, trace, result))
            print("ok   %-12s --trace %d: %d jobs, %d metrics" %
                  (w, trace, result["attempted"], len(got)))
    rc, result = run("scan", 0, "--corrupt-oracle")
    if (rc == 0 or result is None or result["correct"]
            or result["failed"] != result["attempted"]):
        fail("a wrong oracle did not fail the run: exit %d, result %r" % (rc, result))
    print("ok   wrong oracle: exit %d, %d of %d jobs failed" %
          (rc, result["failed"], result["attempted"]))
    print("selftest passed")


if __name__ == "__main__":
    main()
