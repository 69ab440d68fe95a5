#!/usr/bin/env python3
"""Runs the benchmark several times per workload and reports each metric's
median, quartiles and spread (interquartile range over median) against the
bounds in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workloads flit-grid,proto-mix]
        [--seconds N] [--trace 0|1] [--out results.json]

Each run is `bash perfbench/run.sh --workload W --seed S --seconds N
--trace T`; its last stdout line is parsed as the result object. A run that
fails, or whose result is not correct, is reported and makes the exit code 1.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    results = {}
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            cmd = ["bash", "perfbench/run.sh", "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", args.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            digest = [l for l in p.stderr.splitlines() if l.startswith("digest ")]
            if not res["correct"]:
                print(f"{wl} seed {seed}: not correct\n{p.stderr}", file=sys.stderr)
                ok = False
            print(f"{wl} seed {seed}: attempted {res['attempted']} failed {res['failed']} {digest[0] if digest else ''}",
                  file=sys.stderr)
            runs.append(res)
        results[wl] = runs
        if len(runs) < 2:
            continue
        print(f"== {wl}: {len(runs)} runs")
        print(f"  {'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
        for name in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print(f"  {name:28s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    if args.out:
        json.dump(results, open(args.out, "w"), indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
