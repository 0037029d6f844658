#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's spread: the distance between the first and third quartile of its
values as a share of their median, next to the bound in BENCHMARK.json.
With --sets 2 the seeds run twice and the second set's median is compared
with the first's.

    python3 perfbench/spread.py --workload iid_resched --seeds 1-10 --sets 2

Run from the repository root. Every run's result line is appended to
.bench_out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_from(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_set(bench, workload, seeds, seconds, log):
    values = {}
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        result = json.loads(lines[-1])
        log.write(json.dumps({"seed": seed, "result": result}) + "\n")
        log.flush()
        meta = json.loads(lines[-2])["meta"] if len(lines) >= 2 else {}
        flag = "" if result["correct"] and result["failed"] == 0 else "  NOT CORRECT"
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            + f" steal={meta.get('host_steal_share', float('nan')):.3f}" + flag, flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def spread(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) >= 2 else (vals[0],) * 3
    return med, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = seeds_from(args.seeds)

    os.makedirs(".bench_out", exist_ok=True)
    with open(f".bench_out/spread-{args.workload}.jsonl", "a") as log:
        sets = [run_set(bench, args.workload, seeds, seconds, log) for _ in range(args.sets)]

    for i, values in enumerate(sets, 1):
        print(f"\n{args.workload}, set {i}: {len(seeds)} runs of {seconds} s")
        for name, vals in values.items():
            med, sp = spread(vals)
            bound = metrics[name]["bound"]
            verdict = "ok" if sp <= bound / 3 else "within bound" if sp <= bound else "TOO WIDE"
            line = f"  {name:16s} median {med:12.6g}  spread {sp:7.4f}  bound {bound}  {verdict}"
            if i > 1:
                first, _ = spread(sets[0][name])
                worse = (med - first) / first
                if metrics[name]["better"] == "higher":
                    worse = -worse
                ok = "ok" if worse <= bound else "WORSE THAN BOUND"
                line += f"  vs set 1: {worse:+.4f} {ok}"
            print(line)


if __name__ == "__main__":
    main()
