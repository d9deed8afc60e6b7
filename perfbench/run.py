#!/usr/bin/env python3
"""Builds earbench from source and runs one workload of the EAR benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload floor --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --self-check

The build tree lives under $CARGO_TARGET_DIR (default .bench_build) inside
the repository.  The benchmark's report goes to stdout; its last line is the
JSON result.  Build output goes to stderr.  --self-check runs every workload
at smoke size, asserts that every metric BENCHMARK.json names is emitted,
and asserts that a deliberately wrong writer-side record fails the run.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("floor", "testbed-mix", "qos-repair")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds earbench; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "earbench",
                    "-j", str(min(os.cpu_count() or 1, 4))],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "earbench")


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    return subprocess.run(cmd).returncode


def result_of(binary, workload, trace, extra=()):
    """Runs a smoke-size workload; returns (exit code, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def self_check(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = result_of(binary, workload, trace)
            tag = "%s --trace %d" % (workload, trace)
            if code != 0 or not result or result.get("correct") is not True:
                problems.append("%s: exit %d, result %r" % (tag, code, result))
                continue
            missing = [m for m in expected[trace] if m not in result["metrics"]]
            extra = [m for m in result["metrics"] if m not in expected[trace]]
            if missing or extra:
                problems.append("%s: missing %s, unexpected %s"
                                % (tag, missing, extra))
            if result["failed"] != 0:
                problems.append("%s: %d operations failed"
                                % (tag, result["failed"]))
            print("self-check %-24s ok=%s attempted=%d"
                  % (tag, not (missing or extra), result["attempted"]))
    code, result = result_of(binary, "floor", 0, ("--corrupt-records",))
    if code == 0 or (result and result.get("correct") is not False):
        problems.append("a wrong writer-side record did not fail the run "
                        "(exit %d, result %r)" % (code, result))
    else:
        print("self-check corrupt-records          fails as expected (exit %d)"
              % code)
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required")
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("earbench build failed: %s" % e, file=sys.stderr)
        return 1
    if args.self_check:
        return self_check(binary)
    return run(binary, args)


if __name__ == "__main__":
    sys.exit(main())
