#!/usr/bin/env python3
"""Steadiness check: run every workload of BENCHMARK.json ten times,
with seeds 1 to 10, alternating the order of the workloads from one
round to the next, and print for each end-to-end metric its median,
quartiles and spread (Q3 - Q1 over the median) against its bound, plus
the share of failed operations.

    python3 perfbench/steady.py

Run it from the root of a checkout. A spread at or above a third of its
bound is flagged "wide", at or above the bound "OVER"; any OVER, failed
correctness check or change in the failed share makes it exit 1.
"""
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def run_one(cmd, workload, seed, seconds):
    out = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, check=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    failed = {w: [] for w in workloads}
    ok = True
    for k, seed in enumerate(SEEDS):
        order = workloads if k % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_one(bench["command"], w, seed, bench["run_seconds"])
            if not r["correct"]:
                print(f"{w} seed {seed}: INCORRECT", file=sys.stderr)
                ok = False
            failed[w].append(r["failed"] / r["attempted"])
            for m in metrics:
                values[w][m["name"]].append(r["metrics"][m["name"]]["value"])
            got = " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.6g}"
                           for m in metrics)
            print(f"run {k + 1}/{len(SEEDS)} {w} seed {seed}: {got}",
                  file=sys.stderr, flush=True)
    for w in workloads:
        if min(failed[w]) != max(failed[w]):
            ok = False
        print(f"\n{w} ({len(SEEDS)} runs, seeds {SEEDS[0]}..{SEEDS[-1]}; "
              f"failed share {min(failed[w])}..{max(failed[w])})")
        print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for m in metrics:
            q1, med, q3 = statistics.quantiles(values[w][m["name"]], n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread >= m["bound"]:
                flag, ok = "OVER", False
            elif spread >= m["bound"] / 3:
                flag = "wide"
            print(f"  {m['name']:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.3f}{m['bound']:>7.2f} {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
