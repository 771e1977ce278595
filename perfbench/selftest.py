#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

usage: python3 perfbench/selftest.py      (from the repository root)

Checks, for every workload fzbench runs:
  * --trace 0 exits 0 and its JSON line is correct, with every end_to_end
    metric of BENCHMARK.json present, finite, nonzero and in its unit; the
    human-readable report names the workload's own metrics with units;
  * --trace 1 exits 0 with every per_layer metric present and in its unit,
    and writes a Chrome trace that scripts/validate_trace.py accepts;
  * --inject-corrupt makes the run fail: exit 1, "correct": false and at
    least one failed operation.  The codec workloads and the service feed a
    corrupted stream; the reader workload corrupts one delivered slice.
"""
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The figures each workload prints by name with their unit besides the
# JSON, and other lines its report must contain.
CODEC = [("compress_gbps", "GB/s"), ("decompress_gbps", "GB/s"),
         ("compress_p50_us", "us"), ("compress_p90_us", "us"),
         ("decompress_p50_us", "us"), ("decompress_p90_us", "us"),
         ("ratio", "x")]
NAMED = {
    "bulk-large": CODEC,
    "small-mixed": CODEC,
    "reader-slices": [("slice_p50_us", "us"), ("slice_p90_us", "us")],
    "service-mixed": [("jobs_per_s", "1/s"), ("job_p50_us", "us"),
                      ("job_p90_us", "us"), ("ratio", "x")],
}
ALWAYS = [("error_rate", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
LINES = ["hardware: nproc", "llc", "simd", "build", "openmp",
         "memory.copy_gbps.1t", "memory.copy_gbps.nt", "histogram"]
CODEC_LINES = ["round-trip p50 per 1 s window"]

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return p.returncode, p.stdout, result, p.stderr


def check_metrics(tag, result, specs, nonzero):
    metrics = result["metrics"]
    check(sorted(metrics) == sorted(s["name"] for s in specs),
          f"{tag}: metric names match BENCHMARK.json")
    for s in specs:
        m = metrics.get(s["name"])
        ok = (m is not None and m["unit"] == s["unit"]
              and isinstance(m["value"], (int, float))
              and math.isfinite(m["value"]) and (m["value"] != 0 or not nonzero))
        check(ok, f"{tag}: {s['name']} present in {s['unit']}"
              + (" and nonzero" if nonzero else ""))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    # All four workloads, including small-mixed, which BENCHMARK.json does
    # not gate (README.md, "Known behaviour").
    for w in NAMED:
        code, out, result, err = run(w, 0)
        ok = (code == 0 and result is not None and result["correct"]
              and result["failed"] == 0 and result["attempted"] >= 1)
        check(ok, f"{w}: untraced run is correct (exit {code})" + ("" if ok else err[-300:]))
        if result:
            check_metrics(f"{w} trace 0", result, bench["end_to_end"], True)
        for metric, unit in NAMED[w] + ALWAYS:
            pattern = rf"^{re.escape(metric)}\s+\S+ {re.escape(unit)}$"
            check(re.search(pattern, out, re.M) is not None,
                  f"{w}: report prints {metric} in {unit}")
        for line in LINES + (CODEC_LINES if NAMED[w] is CODEC else []):
            check(line in out, f"{w}: report prints '{line}'")

        code, out, result, err = run(w, 1)
        ok = code == 0 and result is not None and result["correct"]
        check(ok, f"{w}: traced run is correct (exit {code})" + ("" if ok else err[-300:]))
        if result:
            check_metrics(f"{w} trace 1", result, bench["per_layer"], False)
        trace = os.path.join(ROOT, ".bench_build", "out", f"trace-{w}-7.json")
        v = subprocess.run([sys.executable,
                            os.path.join(ROOT, "scripts", "validate_trace.py"),
                            trace, "--expect", "verify"],
                           capture_output=True, text=True)
        check(v.returncode == 0, f"{w}: trace validates {v.stdout.strip()}{v.stderr.strip()}")

        code, out, result, err = run(w, 0, "--inject-corrupt")
        check(code == 1 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              f"{w}: injected corruption counts as a failed operation (exit {code})")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
