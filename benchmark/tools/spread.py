#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

From the repository root:

    python3 benchmark/tools/spread.py --workload wasm-batch --seeds 1-10
    python3 benchmark/tools/spread.py --workload all --seeds 1-10 \
        --record benchmark/trajectory.json --note "seed commit"

For every end-to-end metric (or per-layer metric with --trace 1) it prints
the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json. A spread above a third of the bound is flagged. With
--record, the medians, quartiles and spreads are appended to a trajectory
file as one point, with the git revision and the core count.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: outputs not correct")
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True,
                    help="workload name, or 'all'; repeatable")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--verbose", action="store_true", help="print every value")
    ap.add_argument("--record", help="trajectory file to append a point to")
    ap.add_argument("--note", default="", help="label of the recorded point")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if "all" in args.workload else args.workload
    section = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in section}
    seeds = parse_seeds(args.seeds)

    point = {}
    for workload in workloads:
        runs = [run_once(bench, workload, s, args.trace) for s in seeds]
        print(f"== {workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}")
        point[workload] = {}
        for m in section:
            name = m["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarize(values)
            s["unit"] = m["unit"]
            point[workload][name] = s
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
                flag = "  <-- above bound/3"
            bound_text = f"{bound:.3f}" if bound is not None else "-"
            print(f"  {name:<28} median {s['median']:>14.6g} {m['unit']:<6} "
                  f"q1 {s['q1']:>12.6g} q3 {s['q3']:>12.6g} "
                  f"spread {s['spread']:.4f} (bound {bound_text}){flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.6g}" for v in values))

    if args.record:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip() or "unknown"
        entry = {
            "note": args.note,
            "git_rev": rev,
            "nproc": os.cpu_count(),
            "date": datetime.date.today().isoformat(),
            "run_seconds": bench["run_seconds"],
            "seeds": seeds,
            "trace": args.trace,
            "workloads": point,
        }
        trajectory = {"points": []}
        if os.path.exists(args.record):
            with open(args.record) as f:
                trajectory = json.load(f)
        trajectory["points"].append(entry)
        with open(args.record, "w") as f:
            json.dump(trajectory, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
