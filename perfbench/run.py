#!/usr/bin/env python3
"""The gbis benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds a Release tree of the
unmodified CMake project into .bench_build/ (or $CARGO_TARGET_DIR), runs
the named workload against the real `gbis serve` / `gbis campaign`
binaries, checks every answer, prints each metric with its unit and
direction, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
runs the traced in-process replay and reports the per-layer metrics.
Workloads, metrics and the layer map are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "release")


def cache_entries(path):
    entries = {}
    with open(path) as f:
        for line in f:
            key, sep, value = line.rstrip("\n").partition("=")
            if sep and ":" in key and not key.startswith(("#", "//")):
                entries[key.split(":")[0]] = value
    return entries


def build():
    """Configures (once) and builds the Release tree; refuses Debug and
    sanitizer builds. Build output goes to a log, never to stdout."""
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at the repository root; run from a gbis checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "ab") as log:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", out, *gen,
                 "-DCMAKE_BUILD_TYPE=Release", "-DGBIS_SANITIZE=",
                 "-DGBIS_BUILD_TESTS=OFF", "-DGBIS_BUILD_BENCH=OFF",
                 "-DGBIS_BUILD_EXAMPLES=OFF"],
                stdout=log, stderr=log)
            if rc != 0:
                fail(f"cmake configure failed; see {log_path}")
        cache = cache_entries(os.path.join(out, "CMakeCache.txt"))
        if cache.get("CMAKE_BUILD_TYPE") != "Release":
            fail(f"refusing build type {cache.get('CMAKE_BUILD_TYPE')!r}: "
                 "the benchmark measures Release builds only")
        if cache.get("GBIS_SANITIZE"):
            fail("refusing a sanitizer build (GBIS_SANITIZE="
                 f"{cache['GBIS_SANITIZE']})")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        rc = subprocess.call(["cmake", "--build", out, "-j", jobs],
                             stdout=log, stderr=log)
        if rc != 0:
            fail(f"build failed; see {log_path}")
    return out, cache


def source_digest():
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def run_context(cache):
    commit = "none (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    r = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    return {
        "commit": commit,
        "source_digest": source_digest(),
        "compiler": (r.stdout.splitlines() or ["unknown"])[0],
        "flags": (cache.get("CMAKE_CXX_FLAGS", "") + " " +
                  cache.get("CMAKE_CXX_FLAGS_RELEASE", "")).strip(),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "nproc": os.cpu_count(),
    }


def main():
    # A SIGTERM unwinds like an error, so the exit hooks reap every server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(names)}")

    out, cache = build()
    sys.path.insert(0, HERE)
    import workloads  # noqa: E402  (after the build check, next to this file)

    ctx = workloads.Context(
        gbis=os.path.join(out, "tools", "gbis"),
        tracer=os.path.join(out, "tools", "gbis_trace"),
        workdir=os.path.join(os.path.dirname(out), "work", args.workload),
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        per_layer=[m["name"] for m in spec["per_layer"]])
    result = workloads.run(args.workload, ctx)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = result.metrics.get(m["name"])
        if value is None:
            result.problems.append(f"metric {m['name']} was not measured")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if args.trace:
            print(f"{m['name']:36s} {value:14.6g} {m['unit']:10s} "
                  f"({m['better']} is better)")
        else:
            note = result.notes.get(m["name"], "")
            print(f"{m['name']:20s} {value:14.6g} {m['unit']:8s} "
                  f"({m['better']} is better, bound {m['bound']}) {note}")
    for p in result.problems[:20]:
        print(f"CHECK FAILED: {p}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": run_context(cache),
        "notes": result.notes, "problems": result.problems,
        "extra": result.extra, "metrics": metrics, "measured": result.metrics,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    results_dir = os.path.join(os.path.dirname(out), "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    correct = not result.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed + (0 if correct or result.failed else 1),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
