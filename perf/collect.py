#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

    python3 perf/collect.py --seeds 1-10 [--workloads bulk_tx,rpc_rx,crash]
                            [--seconds 30] [--trace 0] [--out FILE --label L]

For every workload and every end-to-end metric (per-layer metrics with
--trace 1) it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread, (q3 - q1) / median, next
to the metric's bound from BENCHMARK.json.  With --out, the summary is added
as one named set to a JSON results file, so that successive sets of runs
(for example two sets at one commit) sit side by side.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(PERF_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stdout.write(proc.stdout)
        sys.exit("%s seed %d failed its checks" % (workload, seed))
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,9")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--label", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    seeds = parse_seeds(args.seeds)

    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    for seed in seeds:  # seeds outermost: host noise spreads over workloads
        for w in workloads:
            result = run(w, seed, seconds, args.trace)
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print("%s seed %d: %s" % (w, seed, ", ".join(
                "%s=%.6g" % (m["name"], result["metrics"][m["name"]]["value"])
                for m in metrics[:6])), flush=True)

    summary = {}
    for w in workloads:
        summary[w] = {}
        print("\n%s (%d seeds)" % (w, len(seeds)))
        for m in metrics:
            s = summarise(values[w][m["name"]]) if len(seeds) > 1 else \
                {"median": values[w][m["name"]][0], "values":
                 values[w][m["name"]]}
            summary[w][m["name"]] = s
            if "bound" in m and "spread" in s:
                print("  %-20s median %-14.6g q1 %-14.6g q3 %-14.6g "
                      "spread %.4f (bound %.2f)" % (
                          m["name"], s["median"], s["q1"], s["q3"],
                          s["spread"], m["bound"]))

    if args.out:
        data = {"sets": []}
        if os.path.exists(args.out):
            with open(args.out) as f:
                data = json.load(f)
        data["sets"].append({"label": args.label, "seeds": seeds,
                             "seconds": seconds, "trace": args.trace,
                             "workloads": summary})
        with open(args.out, "w") as f:
            json.dump(data, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
