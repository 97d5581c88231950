#!/usr/bin/env python3
"""Builds and runs the cascaded-execution end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload parmvr_chain --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first form configures and builds perfbench/ (which compiles the
repository's src/ libraries) into .bench_build/perfbench, then runs one
workload; the last stdout line is the JSON result.  Build output goes to
stderr.  --selftest runs a short mode of every workload and checks that each
metric BENCHMARK.json names is printed with its unit, and that a corrupted
reference digest is counted as a failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("parmvr_chain", "spmv_prefetch", "svc_jobs")
# Metrics printed in the report only (not in the result line), by workload
# and --trace value; the self-test checks them next to BENCHMARK.json's.
REPORT_ONLY = {
    "parmvr_chain": {"0": {"fail_ratio": "ratio"},
                     "1": {"fail_ratio": "ratio", "analysis.plan_s": "s",
                           "analysis.gate_in_call_s": "s"}},
    "spmv_prefetch": {"0": {"fail_ratio": "ratio"},
                      "1": {"fail_ratio": "ratio", "analysis.gate_in_call_s": "s"}},
    "svc_jobs": {"0": {"fail_ratio": "ratio", "job_p50_ms": "ms", "job_p99_ms": "ms"},
                 "1": {"fail_ratio": "ratio", "svc.reply_run_ms_p50": "ms",
                       "svc.outside_run_ms_p50": "ms", "analysis.gate_in_call_s": "s"}},
}


def build():
    """Configures (once) and builds the benchmark; False when it cannot."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the program's sources (src/) are not in this checkout",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_binary(args, capture=False):
    cmd = [BINARY] + args
    if capture:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd, cwd=ROOT)


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1", "--short"]
        for trace, names in expected.items():
            proc = run_binary(base + ["--trace", trace], capture=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            where = "%s --trace %s" % (workload, trace)
            if proc.returncode != 0 or result.get("failed") != 0:
                problems.append(where + ": run failed")
            if got != names:
                problems.append("%s: metrics %s differ from BENCHMARK.json %s"
                                % (where, sorted(got.items()), sorted(names.items())))
            for name, unit in {**names, **REPORT_ONLY[workload][trace]}.items():
                if not any(l.startswith("metric %s " % name) and
                           l.split()[3] == unit for l in lines):
                    problems.append("%s: report lacks '%s' in %s" % (where, name, unit))
        proc = run_binary(base + ["--trace", "0", "--corrupt-reference"], capture=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode == 0 or result.get("correct") is not False or \
                result.get("failed", 0) < 1:
            problems.append(workload + ": a corrupted reference digest was not "
                            "counted as a failure")
        print("selftest %s: %s" % (workload, "checked"), flush=True)
    for p in problems:
        print("selftest FAIL: " + p)
    print("selftest " + ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 2
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    if args.selftest:
        return selftest()
    return run_binary(["--workload", args.workload, "--seed", args.seed,
                       "--seconds", args.seconds, "--trace", args.trace]).returncode


if __name__ == "__main__":
    sys.exit(main())
