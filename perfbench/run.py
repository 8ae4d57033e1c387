#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload tenant_mix --seed 1 --seconds 40 --trace 0

The binary is built with CMake into .bench_build/ at the repository root
(configured once, rebuilt incrementally). Its output is passed through;
a context line records the host (hardware threads, load average) and
the source revision, and the last line is the result JSON:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a mismatch is an error. Exit codes: 0 ok,
1 a correctness check failed (result printed), 2 bad arguments, 3 build
failed, 4 the run failed or timed out, 5 the result does not match
BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run must end within 180 s. At run_seconds 40 on a 4-vCPU host one
# run takes 40-54 s untraced and 45-49 s traced, so the program may get
# about 3x slower and still report.
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(2, "cannot read BENCHMARK.json: %s" % e)


def build():
    """Configures (once) and builds the perfbench target; exits on error."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT).returncode
            except OSError as e:
                fail(3, "build failed: %s" % e)
            if rc != 0:
                # A failed configure must not leave a cache behind.
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(3, "build failed (%s)" % " ".join(cmd[:2]))


def source_revision():
    """Git revision when the tree is a checkout, plus a digest of the
    sources the benchmark builds (always available)."""
    rev = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return rev, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-only", action="store_true",
                        help="build the binary and exit")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec.get("workloads", [])]
    if args.workload not in names:
        fail(2, "unknown workload %r (BENCHMARK.json lists %s)"
             % (args.workload, ", ".join(names)))
    build()
    if args.build_only:
        return 0

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, "run timed out after %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(4, "run failed with exit code %d" % proc.returncode)
    result = json.loads(lines[-1])

    expected = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong_unit = sorted(n for n in set(want) & set(got)
                            if want[n] != got[n])
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(5, "metrics do not match BENCHMARK.json: missing %s, extra %s, "
             "unit differs %s" % (missing, extra, wrong_unit))

    rev, src_digest = source_revision()
    context = {"hardware_threads": os.cpu_count(),
               "loadavg": [round(x, 2) for x in os.getloadavg()],
               "git_rev": rev, "source_digest": src_digest}
    print("\n".join(lines[:-1]))
    print("context: " + json.dumps(context))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
