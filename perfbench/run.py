#!/usr/bin/env python3
"""End-to-end benchmark of the meecc simulator.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 42 --seconds 45 --trace 0

It builds the benchmark driver (perfbench/CMakeLists.txt, a Release build of
the simulator libraries plus driver.cc) into .bench_build/, times the
workload's set-up several times, runs the workload for --seconds seconds, checks
every output, and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. The line before it records the host context.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
DRIVER = BUILD_DIR / "meecc_perfbench"
WORKLOADS = ("figures", "campaign", "campaign_stored")
BUILD_TYPE = "Release"
# Set-up repetitions per run (setup_s is their median). A campaign_stored
# set-up fills a setup store, which costs seconds; the others cost
# milliseconds, so more repetitions are cheap.
SETUP_REPS = {"figures": 21, "campaign": 21, "campaign_stored": 3}
MEASURE_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def source_digest():
    """sha256 over the simulator and benchmark sources: the code identity
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def host_context():
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    try:
        with open(BUILD_DIR / "CMakeCache.txt") as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    exe = line.split("=", 1)[1].strip()
                    out = subprocess.run([exe, "--version"], capture_output=True,
                                         text=True).stdout
                    compiler = out.splitlines()[0] if out else exe
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            commit = result.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "compiler": compiler,
        "cmake_build_type": BUILD_TYPE,
        "commit": commit,
        "source_sha256": source_digest(),
        "accuracy": "unvalidated: no hardware reference results, so no "
                    "accuracy figure is reported",
    }


def run_driver(args, timeout=None):
    result = subprocess.run([str(DRIVER)] + args, stdout=subprocess.PIPE,
                            text=True, timeout=timeout)
    if result.returncode != 0:
        raise RuntimeError(f"driver {args[0]} exited {result.returncode}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Workloads BENCHMARK.json tracks print exactly its metrics; the others
    # (figures) also print their workload-specific per-layer metrics.
    tracked = {w["name"] for w in spec["workloads"]}
    reference = json.loads((HERE / "reference.json").read_text())

    if not build():
        log("perfbench: build failed")
        return 1

    context = host_context()
    context["loadavg_before"] = os.getloadavg()
    work = BUILD_ROOT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    marker = BUILD_ROOT / "verified" / f"{args.workload}.json"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work", str(work)]
    try:
        setup_times = []
        for _ in range(SETUP_REPS[args.workload]):
            start = time.perf_counter()
            run_driver(["setup"] + common, timeout=MEASURE_TIMEOUT_S)
            setup_times.append(time.perf_counter() - start)

        verify = not marker.exists()
        measured = run_driver(
            ["measure"] + common + ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace)]
            + (["--verify"] if verify else []),
            timeout=MEASURE_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context["loadavg_after"] = os.getloadavg()

    attempted = measured["attempted"]
    failed = measured["failed"]
    expected = reference["digests"][args.workload]
    if measured["digest_at_reference_seed"] and measured["digest"] != expected:
        log(f"perfbench: digest {measured['digest']} != reference {expected}")
        failed = attempted
    if verify:
        checks = measured["verify"]
        ok = checks.get("jobs1_identical", True)
        if "reference_digest" in checks and checks["reference_digest"] != expected:
            log(f"perfbench: reference-seed digest {checks['reference_digest']}"
                f" != {expected}")
            failed += checks["reference_trials"]
            ok = False
        if ok and failed == 0:
            marker.parent.mkdir(parents=True, exist_ok=True)
            marker.write_text(json.dumps(checks) + "\n")

    metrics = {}
    if args.trace:
        layers = measured["per_layer"]
        for metric in spec["per_layer"]:
            name = metric["name"]
            if layers[name]["unit"] != metric["unit"]:
                raise RuntimeError(f"{name}: driver unit {layers[name]['unit']}"
                                   f" != BENCHMARK.json unit {metric['unit']}")
            metrics[name] = layers[name]
        if args.workload not in tracked:
            metrics.update(layers)
    else:
        passes = measured["passes"]
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "trials_per_s": statistics.median(p["trials"] / p["wall_s"]
                                              for p in passes),
            "peak_rss_mb": measured["peak_rss_mb"],
            "setup_s": statistics.median(setup_times),
        }
        for metric in spec["end_to_end"]:
            metrics[metric["name"]] = {"value": values[metric["name"]],
                                       "unit": metric["unit"]}
        context["passes"] = len(passes)
    context["setup_reps"] = len(setup_times)

    print(json.dumps({"host_context": context}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
