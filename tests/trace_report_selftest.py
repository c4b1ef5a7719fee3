#!/usr/bin/env python3
"""trace_report self-test (ctest `trace_report_selftest`).

tools/trace_report.py is the only check of an exported trace file's JSON:
the C++ side validates the in-memory capture, not its serialization. This
proves every validate() rule still fires on a crafted document built to
break exactly that rule, that a well-formed capture (escaped strings, nested
spans, 'X' and 'i' events) passes clean, and that the CLI's exit status
separates valid (0), invalid (1) and unreadable (2) files.
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "trace_report.py")

spec = importlib.util.spec_from_file_location("trace_report", TOOL)
trace_report = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace_report)


def ev(ph, name, ts, pid=1, tid=1, **extra):
    return dict(ph=ph, name=name, cat="mr", ts=ts, pid=pid, tid=tid, **extra)


VALID = [
    ev("B", "job", 1, pid=1000000),
    ev("B", "map_task", 2),
    ev("i", 'q"b\\s\n\x01', 3, args={"k": "v"}),
    ev("B", "map_task", 3, tid=2),
    ev("E", "map_task", 4, args={"locality": "memory"}),
    ev("E", "map_task", 5, tid=2),
    ev("X", "reduce_task", 6, dur=2),
    ev("E", "job", 9, pid=1000000),
]

# rule -> (events, substring its error message must carry)
BROKEN = {
    "not an object": ([ev("i", "a", 1), ["i"]], "not an object"),
    "missing fields": ([{"ph": "i", "ts": 1}], "missing fields"),
    "unknown phase": ([ev("Q", "a", 1)], "unknown phase"),
    "decreasing timestamps": ([ev("i", "a", 5), ev("i", "b", 4)], "timestamp 4 < previous 5"),
    "E without B": ([ev("E", "a", 1)], "with no open span"),
    "E closes the wrong span": ([ev("B", "a", 1), ev("E", "b", 2)], "does not close 'a'"),
    "E on another track": ([ev("B", "a", 1), ev("E", "a", 2, tid=2)], "with no open span"),
    "X without dur": ([ev("X", "a", 1)], "'X' without dur"),
    "unclosed span": ([ev("B", "a", 1)], "unclosed span 'a'"),
}


def run_cli(path):
    return subprocess.run([sys.executable, TOOL, "--validate-only", path],
                          capture_output=True, text=True).returncode


def main():
    failures = []
    errors = trace_report.validate(VALID)
    if errors:
        failures.append(f"valid capture rejected: {errors}")
    for rule, (events, needle) in BROKEN.items():
        errors = trace_report.validate(events)
        if not any(needle in e for e in errors):
            failures.append(f"rule '{rule}' did not fire (errors: {errors})")

    with tempfile.TemporaryDirectory() as tmp:
        def write(name, text):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            return path

        cases = [
            ("valid.json", json.dumps({"traceEvents": VALID}), 0),
            ("invalid.json", json.dumps({"traceEvents": BROKEN["unclosed span"][0]}), 1),
            ("no_events.json", json.dumps({"displayTimeUnit": "ms"}), 1),
            ("top_level_array.json", json.dumps(VALID), 1),
            ("truncated.json", json.dumps({"traceEvents": VALID})[:-3], 2),
            ("bad_escape.json", '{"traceEvents":[{"ph":"i","name":"\\q"}]}', 2),
        ]
        for name, text, want in cases:
            got = run_cli(write(name, text))
            if got != want:
                failures.append(f"{name}: exit {got}, want {want}")

    if failures:
        print("FAIL:\n  " + "\n  ".join(failures))
        return 1
    print(f"OK: {len(BROKEN)} validation rules fired, valid capture clean, "
          f"CLI exit codes 0/1/2 as documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
