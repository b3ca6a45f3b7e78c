#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <train_estimate|plan_search|wire_serving|zoo_churn>
                             --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which pulls in the
repository's own CMake build) into .bench_build/perfbench; later calls only
rebuild what changed. The benchmark binary's output is passed through, so
the last line of standard output is the JSON result; it is first checked
against BENCHMARK.json (every end_to_end metric untraced, every per_layer
metric traced, each in its unit), and a mismatch fails the run. Temporary artifacts go
to .bench_run/ and are removed when the run ends, whether or not it passed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import uuid

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "duet_perfbench")
WORKLOADS = ("train_estimate", "plan_search", "wire_serving", "zoo_churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def commit_id():
    """The git commit, or a hash of the built sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", os.path.relpath(HERE, ROOT)):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def check_result(line, trace):
    """Returns why the result line does not hold the manifest's metrics, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            manifest = json.load(fh)
        result = json.loads(line)
    except (OSError, ValueError) as err:
        return "cannot read the manifest or the result line (%s)" % err
    wanted = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        return "metrics %s differ from the manifest's %s" % (sorted(got), sorted(wanted))
    for name, unit in wanted.items():
        if got[name].get("unit") != unit:
            return "metric %s has unit %r, the manifest says %r" % (name, got[name].get("unit"), unit)
    return None


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("run from the root of a repository checkout (CMakeLists.txt and src/ not found)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "duet_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as err:
            die("build step failed: %s (%s)" % (" ".join(cmd), err))
        if done.returncode != 0:
            die("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")

    build()
    scratch = os.path.join(ROOT, ".bench_run", "%s-%d-%s" % (args.workload, os.getpid(),
                                                             uuid.uuid4().hex[:8]))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--scratch", scratch,
           "--out", os.path.join(ROOT, ".bench_out")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("workload %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        die("workload %s failed (exit code %d)" % (args.workload, proc.returncode))
    mismatch = check_result(lines[-1], args.trace == 1)
    if mismatch:
        sys.stderr.write(out)
        die("workload %s: %s" % (args.workload, mismatch))
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
