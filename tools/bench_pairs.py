#!/usr/bin/env python3
"""Compare two mpixccl_bench binaries on one workload over alternating runs.

    python3 tools/bench_pairs.py BASE_BIN CAND_BIN --workload omb_large \\
        --pairs 10 --seconds 25 --seed-base 100

Pair i runs both binaries with seed SEED_BASE + i, the base first in even
pairs and the candidate first in odd ones, so slow drifts in the machine's
load fall on both sides alike. Each row prints the base and candidate
medians, the base's quartiles, and how many pairs the candidate won. The
per-run table prints each run's hypervisor steal (host_steal_pct) and
cpu_us_per_call: the run's user + sys CPU time (os.wait4) over the calls it
attempted. cpu_us_per_call counts the whole process, set-up included, so it
reads CPU spent per call that a spinning wait adds even when the wall-clock
rate does not move. Running one binary on both sides is an A/A check: its
win count and median change show what noise alone reads.

Uses the python3 standard library only. Builds nothing: point it at two
mpixccl_bench binaries built from bench/e2e (see bench/e2e/README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The rows compared per workload: BENCHMARK.json's end-to-end metrics, then
# the CPU cost per call this tool measures.
CPU_ROW = ("cpu_us_per_call", "lower")


def rows() -> list:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in doc["end_to_end"]] + [CPU_ROW]


def run(exe: str, workload: str, seed: int, seconds: float) -> dict:
    """One run: its result points plus cpu_us_per_call."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    lines = out.splitlines()
    if not lines:
        sys.exit(f"bench_pairs: {exe} exited {proc.returncode} without a result")
    points = {p["series"]: p["value"] for p in json.loads(lines[-1])["points"]
              if p["table"] == workload}
    attempted = points.get("attempted", 0)
    cpu_s = usage.ru_utime + usage.ru_stime
    points["cpu_us_per_call"] = 1e6 * cpu_s / attempted if attempted else float("nan")
    points["exit"] = proc.returncode
    return points


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="the reference mpixccl_bench binary")
    ap.add_argument("cand", help="the candidate mpixccl_bench binary")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed-base", type=int, required=True)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    runs = []  # (seed, order, base points, cand points)
    for i in range(args.pairs):
        seed = args.seed_base + i
        sides = ["base", "cand"] if i % 2 == 0 else ["cand", "base"]
        got = {}
        for side in sides:
            got[side] = run(getattr(args, side), args.workload, seed, args.seconds)
        runs.append((seed, "/".join(sides), got["base"], got["cand"]))
        print(f"pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs x {args.seconds:g} s, "
          f"seeds {args.seed_base}..{args.seed_base + args.pairs - 1}")
    print(f"{'metric':<18} {'better':<6} {'base med':>12} {'cand med':>12} "
          f"{'change':>8} {'base q1':>12} {'base q3':>12} {'cand won':>9}")
    for name, better in rows():
        pairs = [(b[name], c[name]) for _, _, b, c in runs if name in b and name in c]
        if not pairs:
            continue
        base = [b for b, _ in pairs]
        cand = [c for _, c in pairs]
        mb, mc = statistics.median(base), statistics.median(cand)
        q1, q3 = quartiles(base)
        won = sum(1 for b, c in pairs if (c > b if better == "higher" else c < b))
        change = f"{100.0 * (mc - mb) / mb:+.1f}%" if mb else "n/a"
        print(f"{name:<18} {better:<6} {mb:>12.6g} {mc:>12.6g} {change:>8} "
              f"{q1:>12.6g} {q3:>12.6g} {won:>5}/{len(pairs)}")
    print("cpu_us_per_call is user + sys CPU of the whole run, set-up included, "
          "over the calls it attempted")

    print(f"\n{'seed':>6} {'order':<10} {'base steal%':>11} {'cand steal%':>11} "
          f"{'base cpu_us':>11} {'cand cpu_us':>11} {'base fail':>9} {'cand fail':>9}")
    for seed, order, b, c in runs:
        print(f"{seed:>6} {order:<10} {b.get('host_steal_pct', float('nan')):>11.2f} "
              f"{c.get('host_steal_pct', float('nan')):>11.2f} "
              f"{b['cpu_us_per_call']:>11.1f} {c['cpu_us_per_call']:>11.1f} "
              f"{int(b.get('failed', 0)):>9} {int(c.get('failed', 0)):>9}")
    if any(r["exit"] != 0 for _, _, b, c in runs for r in (b, c)):
        sys.exit("bench_pairs: a run exited nonzero (a failed call)")


if __name__ == "__main__":
    main()
