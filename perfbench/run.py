#!/usr/bin/env python3
"""The repository benchmark's entry point.

    python3 perfbench/run.py --workload lookup|scan|churn --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (a CMake package that
compiles the repository's sources) in Release mode under .bench_build/,
runs the benchmark's self-check, then one measured run of the workload.

Prints every metric by name with its unit (end-to-end ones with
--trace 0, per-layer ones with --trace 1), then, as the last line, one
JSON object with exactly the keys correct, attempted, failed and
metrics. Each run is appended, with a host and build fingerprint, to
perfbench/trajectory.jsonl; entries are never rewritten.

Exits nonzero, without a result line, when the repository sources are
missing, the build is not Release, or the self-check fails; exits
nonzero after the result line when any reply was wrong, any operation
failed, or the run was invalid.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(HERE, "out")
TRAJECTORY = os.path.join(HERE, "trajectory.jsonl")

# The eight end-to-end metrics, in the order they are printed. Those
# not gated (not in this run's metrics) come from its info block, where
# "n/a" marks a metric the workload does not exercise.
END_TO_END = [
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("peak_qps", "1/s"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("failed_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; kills it on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return -1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "server.h")):
        log("perfbench: repository sources (src/) not found next to perfbench/")
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    if run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"], 300) != 0:
        log("perfbench: configure failed")
        return False
    if run_quiet(["cmake", "--build", BUILD, "-j", jobs], 800) != 0:
        log("perfbench: build failed")
        return False
    return True


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "none"


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    if build_type() != "Release":
        log("perfbench: refusing a non-Release build (%r)" % build_type())
        return 2
    selfcheck = subprocess.run([os.path.join(BUILD, "perfbench_selfcheck")],
                               cwd=ROOT, stdout=sys.stderr, timeout=60)
    if selfcheck.returncode != 0:
        log("perfbench: self-check failed")
        return 2

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, "work-%d" % os.getpid())
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    started = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=160)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        log("perfbench: run timed out")
        return 3
    shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: no result from the benchmark (exit %d)" % proc.returncode)
        return 3
    info = raw.get("info", {})
    if info.get("build_type") != "Release":
        log("perfbench: refusing a non-Release binary (%r)" % info.get("build_type"))
        return 2

    metrics = raw["metrics"]
    if args.trace == 0:
        print("workload %s seed %d: end-to-end metrics" % (args.workload, args.seed))
        for name, unit in END_TO_END:
            if name in metrics:
                value = "%.6g" % metrics[name]["value"]
            elif isinstance(info.get(name), (int, float)):
                value = "%.6g" % info[name]
            else:
                value = str(info.get(name, "n/a"))
            print("  %-16s %14s %s" % (name, value, unit))
        for key in ("query_p99_us.samples", "query_p99_us.beyond",
                    "loadgen.late_ms.p99", "auto_compactions",
                    "host.steal_frac"):
            if key in info:
                print("  %-24s %g" % (key, info[key]))
    else:
        print("workload %s seed %d: per-layer metrics (traced replay)"
              % (args.workload, args.seed))
        for name, m in metrics.items():
            print("  %-30s %14.6g %s" % (name, m["value"], m["unit"]))
        for key in ("not_applicable", "refused_p99", "trace_file",
                    "trace.untraced_pass_ratio"):
            print("  %s: %s" % (key, info.get(key, "")))

    result = {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    entry = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "host": {"nproc": os.cpu_count(), "cpu": cpu_model()},
        "build": {"type": info.get("build_type"), "simd": info.get("simd"),
                  "commit": commit(), "sources": source_digest()},
        "result": result, "info": info,
    }
    with open(TRAJECTORY, "a") as trajectory:
        trajectory.write(json.dumps(entry, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
