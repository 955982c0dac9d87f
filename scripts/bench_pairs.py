#!/usr/bin/env python3
"""Alternated benchmark pairs of a parent commit and the working tree, run
from the root of a checkout:

    python3 scripts/bench_pairs.py --parent REV --out BENCH_<pr>.json

The parent is exported with `git archive | tar -x` into a temporary
directory, and the working tree is copied beside it without `.git` and
`__pycache__`, so neither side starts with compiled sources. For each workload of BENCHMARK.json, in its order, seed k
(1..10) runs `perfbench/run.py --trace 0` for BENCHMARK.json's
run_seconds once on each tree, one run at a time: the parent first at odd
seeds, the working tree first at even seeds. Then seed 11, which no timed
pair used, runs once traced on each tree, and its nonzero per-layer
metrics are kept.

The output holds every run's JSON line and, per workload and end-to-end
metric, each side's quartiles (inclusive method), the ratio of the medians
(change over parent) and the number of pairs in which the change read
lower. A run that fails its checks (perfbench/run.py exits nonzero) stops
the script with exit code 1, and no file is written.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TRACE_SECONDS = 10


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    # no .pyc is written, so every set-up compiles src/ and setup_s counts it
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(runs: dict) -> dict:
    out = {}
    for name, metric in runs["parent"][0]["result"]["metrics"].items():
        parent, change = ([r["result"]["metrics"][name]["value"] for r in runs[side]]
                          for side in ("parent", "change"))
        out[name] = {
            "unit": metric["unit"],
            "parent_q1_median_q3": statistics.quantiles(parent, n=4, method="inclusive"),
            "change_q1_median_q3": statistics.quantiles(change, n=4, method="inclusive"),
            "change_over_parent_median": statistics.median(change) / statistics.median(parent),
            "pairs_change_lower": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(parent),
        }
    results = [r["result"] for side in ("parent", "change") for r in runs[side]]
    out["correct"] = all(r["correct"] for r in results)
    out["attempted_failed"] = sorted({(r["attempted"], r["failed"]) for r in results})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    parent_rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", parent_rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    trace_seed = PAIRS + 1
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds} --trace 0",
        "host": f"{len(os.sched_getaffinity(0))}-core {platform.machine()} host, Python {platform.python_version()}",
        "order": f"seeds 1-{PAIRS} per workload, workloads in the order "
                 f"{', '.join(w['name'] for w in bench['workloads'])}; parent first at odd seeds, "
                 "change first at even seeds; one run at a time",
        "parent": parent_rev,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        trees["parent"].mkdir()
        subprocess.run(["tar", "-x", "-C", trees["parent"]], input=archive, check=True)
        # a copy without the .pyc files that the working tree's own test runs
        # left, which the export of the parent never has
        shutil.copytree(ROOT, trees["change"], ignore=shutil.ignore_patterns(".git", "__pycache__"))
        for workload in (w["name"] for w in bench["workloads"]):
            runs = {"parent": [], "change": []}
            for seed in range(1, PAIRS + 1):
                for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                    result = run_once(trees[side], workload, seed, seconds, 0)
                    runs[side].append({"seed": seed, "result": result})
                    print(f"{workload} seed {seed} {side}: "
                          f"{ {k: v['value'] for k, v in result['metrics'].items()} }", file=sys.stderr)
            report["workloads"][workload] = {"summary": summary(runs), "runs": runs}
            traced = {side: run_once(trees[side], workload, trace_seed, TRACE_SECONDS, 1)["metrics"]
                      for side in ("parent", "change")}
            report[f"trace_{workload}_seed_{trace_seed}"] = {
                "command": f"python3 perfbench/run.py --workload {workload} --seed {trace_seed} "
                           f"--seconds {TRACE_SECONDS} --trace 1",
                **{side: {name: m["value"] for name, m in metrics.items()
                          if name not in end_to_end and any(traced[s][name]["value"] for s in traced)}
                   for side, metrics in traced.items()},
            }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
