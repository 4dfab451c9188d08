#!/usr/bin/env python3
"""The end-to-end benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload batch-dual --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout.  It builds the benchmark
(perfbench/CMakeLists.txt, which compiles the repository's library from
src/) into .bench_build/, generates the workload's inputs from the seed in
one child process, and runs the workload in a second, fresh child process,
so that peak memory and caches belong to that workload alone.

It prints a table of the metrics with their units, one JSON record with the
host fingerprint and input sizes, and, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics (a
layer the workload does not run reports 0).

Exit codes: 0 success; 1 a correctness check failed (the result line says
correct=false); 2 build, input or usage error (no result line); 3 the build
is a Debug or sanitizer build, whose numbers are not valid (no result line).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
BUILD_TYPE = "RelWithDebInfo"

# Whole-command budget after the build: a run must end within 180 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    """Build, input or usage failure: exit 2 without a result line."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_checked(argv, timeout, **kwargs):
    """Run a child to completion; kill it and wait on timeout."""
    with subprocess.Popen(argv, **kwargs) as child:
        try:
            out, _ = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise BenchError(f"{argv[0]} {argv[1] if len(argv) > 1 else ''} timed out "
                             f"after {timeout} s")
    return child.returncode, out


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"{ROOT} is not a source checkout (no src/ or CMakeLists.txt)")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        code, _ = run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                              BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            raise BenchError("cmake configure failed")
    code, _ = run_checked(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                           "-j", str(nproc())], BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0 or not BINARY.is_file():
        raise BenchError("build failed")


def load_catalogue():
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "unknown"


def source_digest():
    """sha256 over src/ and the root CMakeLists.txt: names the program
    version when the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for path in files + [ROOT / "CMakeLists.txt"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def child_json(argv, timeout):
    code, out = run_checked(argv, timeout, stdout=subprocess.PIPE, text=True)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"{' '.join(argv[1:3])} exited {code} without output")
    try:
        return code, json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{' '.join(argv[1:3])} printed no JSON (exit {code})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    catalogue = load_catalogue()
    names = [w["name"] for w in catalogue["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; one of {', '.join(names)}")
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")
    build()

    started = time.monotonic()
    work = ROOT / ".bench_build" / "runs" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        code, inputs = child_json([str(BINARY), "gen", "--workload", args.workload,
                                   "--seed", str(args.seed), "--out", str(work)],
                                  RUN_TIMEOUT_S)
        if code != 0:
            raise BenchError(f"input generation exited {code}")
        remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
        code, run = child_json([str(BINARY), "run", "--workload", args.workload,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace), "--inputs", str(work)],
                               max(remaining, 10))
        if code not in (0, 1):
            raise BenchError(f"workload run exited {code}")
        results = ROOT / ".bench_build" / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if (work / "trace.json").is_file():
            shutil.copy(work / "trace.json", results / f"{stem}.spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = catalogue["per_layer"] if args.trace else catalogue["end_to_end"]
    measured = dict(run["metrics"])
    for key in ("gen.internet_s", "gen.updates_s"):
        measured[key] = {"value": inputs[key], "unit": "s"}
    metrics = {}
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        got = measured.get(name)
        if got is None:
            if not args.trace:
                raise BenchError(f"workload {args.workload} did not measure {name}")
            got = {"value": 0, "unit": unit}  # a layer this workload does not run
        if got["unit"] != unit:
            raise BenchError(f"{name}: unit {got['unit']} but BENCHMARK.json says {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}

    fingerprint = dict(run["fingerprint"])
    fingerprint.update({"nproc": nproc(), "cpu_model": cpu_model(), "commit": commit(),
                        "source_sha256": source_digest()})
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fingerprint,
              "inputs": {k: v for k, v in inputs.items() if not k.startswith("gen.")},
              "correct": run["correct"], "attempted": run["attempted"],
              "failed": run["failed"], "problems": run["problems"], "metrics": metrics,
              "unit_ms": run["unit_ms"]}
    with open(results / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)

    width = max(len(n) for n in metrics)
    for name, metric in metrics.items():
        print(f"{name:<{width}}  {metric['value']:>14.6g} {metric['unit']}")
    for problem in run["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(record, separators=(",", ":")))
    if not fingerprint["valid_build"]:
        log(f"{fingerprint['build_type']} or sanitizer build: numbers are not valid")
        return 3
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics},
                     separators=(",", ":")), flush=True)
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(str(e))
        sys.exit(2)
