#!/usr/bin/env python3
"""Served-day benchmark entry point.

    python3 daybench/run.py --workload demo-day --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the mobirescue libraries and the
`served_day` driver from source into .bench_build/daybench (CMake,
RelWithDebInfo, Ninja when available), runs one benchmark run, prints the
run header and the driver's report, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.

attempted/failed count ticks (a tick decided by the fallback fails),
GPS records offered (a dropped or quarantined record fails) and the
correctness checks (a failed check fails). Every run also writes a record
with its header to .bench_build/daybench/records/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import socket
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "daybench")
BUILD_TYPE = "RelWithDebInfo"
RESULT_TAG = "DAYBENCH-RESULT "
# A run is world + training + `--seconds` of serving; paper-day's setup
# is ~25 s on 4 cores, so this leaves room without passing the 180 s cap.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[daybench] {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("mobirescue sources not found under " + ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        log("configuring: " + " ".join(cmd))
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "served_day"], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return os.path.join(BUILD, "served_day")


def cmake_cache():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over src/ and daybench/ sources: identifies the build input
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "daybench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_header(args):
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    flags = " ".join(x for x in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + BUILD_TYPE.upper(), ""),
        "-Wall -Wextra") if x)
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": version[0] if version else compiler,
        "cxx_flags": flags,
        "build_type": BUILD_TYPE,
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise RuntimeError("unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    header = run_header(args)
    print("header " + json.dumps(header, sort_keys=True), flush=True)

    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_TAG):
            result = json.loads(line[len(RESULT_TAG):])
        else:
            print(line)
    if result is None:
        raise RuntimeError(f"served_day exited {proc.returncode} without a "
                           "result")

    measured = result["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            raise RuntimeError("served_day did not report " + m["name"])
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    # Everything measured is printed; the result line carries the
    # BENCHMARK.json list (train_s, one noisy sample per run, is printed
    # here and gated nowhere; it is also a per-layer metric).
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in sorted(measured.items()):
        print(f"metric {name:32s} {value:.6g} {units.get(name, '')}")

    checks = result["checks"]
    failed_checks = sum(1 for c in checks if not c["ok"])
    correct = proc.returncode == 0 and failed_checks == 0
    final = {
        "correct": correct,
        "attempted": result["ticks"] + result["records"] + len(checks),
        "failed": (result["failed_ticks"] + result["failed_records"] +
                   failed_checks),
        "metrics": metrics,
    }
    records = os.path.join(BUILD, "records")
    os.makedirs(records, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(records, name), "w") as f:
        json.dump({"header": header, "result": result, "final": final}, f,
                  indent=1, sort_keys=True)
    print(json.dumps(final), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as e:  # no result line on any failure
        log(f"error: {e}")
        sys.exit(2)
