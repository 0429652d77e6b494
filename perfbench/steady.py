#!/usr/bin/env python3
"""Steadiness check: is the benchmark steady enough to judge a change?

    python3 perfbench/steady.py [--runs 10] [--trace]

Runs every workload of BENCHMARK.json --runs times in each of two sets, A
and B, alternating A, B, A, B, ... with a new seed for every run and the run
length BENCHMARK.json gives. For every metric it prints each set's median and
quartiles (statistics.quantiles(values, n=4)), the spread IQR/median, and
whether the sets agree: their medians differ, either way, by at most the
metric's bound from BENCHMARK.json, as a share of the smaller one. A metric
with a bound also fails when its spread exceeds the bound (setup_s is
exempt) and is flagged `noisy` above a third of it. Exits 1 on any failed
operation, missing metric or failed check. Raw results go to
.bench_build/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

FIRST_SEED = 1000
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    for line in lines:
        if line.startswith("perfbench-info "):
            result["info"] = json.loads(line.split(" ", 1)[1])
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description="two alternating sets of seeded runs")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", action="store_true", help="check the per-layer metrics")
    a = p.parse_args()
    if a.runs < 2:
        raise SystemExit("--runs must be at least 2")

    specs = bench["per_layer"] if a.trace else bench["end_to_end"]
    ok = True
    report = {}
    for wl in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(a.runs):
            for k, name in enumerate("AB"):
                seed = FIRST_SEED + 2 * i + k
                res = run_once(wl, seed, bench["run_seconds"], a.trace)
                sets[name].append(res)
                print("%s %s seed %d: %.1fs attempted %d failed %d" % (
                    wl, name, seed, res["wall_s"],
                    res["attempted"], res["failed"]), flush=True)
        report[wl] = sets
        failed = sum(r["failed"] for s in sets.values() for r in s)
        attempted = sum(r["attempted"] for s in sets.values() for r in s)
        print("\n%s: %d operations, %d failed" % (wl, attempted, failed))
        ok = ok and failed == 0
        print("  %-20s %-34s %-34s %6s  %s" % (
            "metric", "set A: median [q1, q3] IQR/med", "set B: median [q1, q3] IQR/med",
            "bound", "verdict"))
        for m in specs:
            name, bound = m["name"], m.get("bound")
            try:
                va = [r["metrics"][name]["value"] for r in sets["A"]]
                vb = [r["metrics"][name]["value"] for r in sets["B"]]
            except KeyError:
                print("  %-32s missing" % name)
                ok = False
                continue
            q1a, meda, q3a, spa = spread(va)
            q1b, medb, q3b, spb = spread(vb)
            verdict = "-"
            if bound is not None:
                agree = abs(medb - meda) <= bound * min(meda, medb)
                steady = name == "setup_s" or max(spa, spb) <= bound
                verdict = "ok" if agree and steady else "FAIL"
                if verdict == "ok" and name != "setup_s" and max(spa, spb) > bound / 3:
                    verdict = "ok (noisy)"
                ok = ok and agree and steady
            print("  %-20s %-34s %-34s %6s  %s" % (
                name, "%.4g [%.4g, %.4g] %.3f" % (meda, q1a, q3a, spa),
                "%.4g [%.4g, %.4g] %.3f" % (medb, q1b, q3b, spb),
                "%.2f" % bound if bound is not None else "-", verdict))
    out = os.path.join(ROOT, ".bench_build", "steady.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f)
    print("\n" + ("STEADY" if ok else "NOT STEADY"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
