#!/usr/bin/env python3
"""Same-host A/B of two revisions with one benchmark revision.

    python3 perfbench/ab.py BASE [CHANGE] [--pairs 10] [--trace]

Exports BASE and CHANGE (default HEAD) with `git archive` into
.bench_build/ab/, copies this working tree's perfbench/ and BENCHMARK.json
into both so that the benchmark code and settings are identical, builds
both, and runs interleaved pairs over every workload in BENCHMARK.json for
its run_seconds: pair i uses seed i+1 on both sides and alternates which
side runs first.  A discarded warm-up run per side comes first.

Prints one row per workload x metric: each side's median with its
quartiles, the ratio change/base, the share of pairs the change won (ties
count for neither) and a verdict:

  better       at least 10 pairs, the change won >= 90% of them and the
               medians differ by more than the base's own quartile spread
  worse        the change's median is worse than the base's by more than
               the metric's bound
  unresolved   either side's quartile spread exceeds the bound and the
               change did not beat the base on every run
  within bound none of the above

Per-layer metrics (--trace) have no bound; they get no verdict.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_DIR = ROOT / ".bench_build" / "ab"


def export(rev, dest):
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    shutil.rmtree(dest / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def run(tree, workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(int(trace))],
                         cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 1) or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"ab: {tree.name} {workload} seed {seed} exited {out.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, better, bound):
    if bound is None:
        return ""
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    spread = max((bq3 - bq1) / bmed if bmed else 0, (cq3 - cq1) / cmed if cmed else 0)
    if len(base) >= 10 and wins >= 0.9 * len(base) and abs(cmed - bmed) > bq3 - bq1:
        return "better"
    if bmed and sign * (bmed - cmed) / bmed > bound:
        return "worse"
    every = (min(change) > max(base)) if better == "higher" else (max(change) < min(base))
    if spread > bound and not every:
        return "unresolved"
    return "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", action="store_true", help="compare per-layer metrics")
    args = parser.parse_args()
    if args.pairs < 1:
        raise SystemExit("ab: --pairs must be at least 1")

    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in catalogue["workloads"]]
    seconds = catalogue["run_seconds"]
    specs = catalogue["per_layer"] if args.trace else catalogue["end_to_end"]

    trees = {"base": AB_DIR / "base", "change": AB_DIR / "change"}
    for side, rev in (("base", args.base), ("change", args.change)):
        print(f"ab: exporting {side} = {rev}", file=sys.stderr)
        export(rev, trees[side])
    for side, tree in trees.items():
        print(f"ab: building {side} and warming up", file=sys.stderr)
        run(tree, workloads[0], 0, min(seconds, 2), args.trace)

    values = {(w, s["name"], side): [] for w in workloads for s in specs for side in trees}
    failures = {side: 0 for side in trees}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for workload in workloads:
            for side in order:
                result = run(trees[side], workload, i + 1, seconds, args.trace)
                failures[side] += result["failed"] + (0 if result["correct"] else 1)
                for spec in specs:
                    values[(workload, spec["name"], side)].append(
                        result["metrics"][spec["name"]]["value"])
            print(f"ab: pair {i + 1}/{args.pairs} {workload} done", file=sys.stderr)

    rows = []
    header = (f"{'workload':<11} {'metric':<24} {'base median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32} {'ratio':>7} {'won':>5}  verdict")
    print(header)
    for workload in workloads:
        for spec in specs:
            base = values[(workload, spec["name"], "base")]
            change = values[(workload, spec["name"], "change")]
            bq1, bmed, bq3 = quartiles(base)
            cq1, cmed, cq3 = quartiles(change)
            sign = 1 if spec["better"] == "higher" else -1
            won = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0) / len(base)
            ratio = cmed / bmed if bmed else float("nan")
            v = verdict(base, change, spec["better"], spec.get("bound"))
            rows.append({"workload": workload, "metric": spec["name"], "unit": spec["unit"],
                         "base": base, "change": change, "ratio": ratio, "won": won,
                         "verdict": v})
            print(f"{workload:<11} {spec['name']:<24} "
                  f"{f'{bmed:.5g} [{bq1:.5g}, {bq3:.5g}]':>32} "
                  f"{f'{cmed:.5g} [{cq1:.5g}, {cq3:.5g}]':>32} "
                  f"{ratio:>7.3f} {won:>5.0%}  {v}")
    print(f"failed operations: base {failures['base']}, change {failures['change']}")
    report = AB_DIR / "report.json"
    report.write_text(json.dumps({"base": args.base, "change": args.change,
                                  "pairs": args.pairs, "seconds": seconds,
                                  "failures": failures, "rows": rows}, indent=1))
    print(f"ab: wrote {report}", file=sys.stderr)


if __name__ == "__main__":
    main()
