#!/usr/bin/env python3
"""Smoke test of mpixccl_bench, run by ctest from the build directory.

Runs every workload at --scale 0.01 twice with the same seed, and omb_small
once with --trace. Fails unless every BENCHMARK.json end_to_end metric is
reported for every workload with its unit and, in `compare`, its bound; the
traced run reports every per_layer metric and writes layers.json and
host_trace.json; no call failed; and the virtual-clock metrics of the two
runs are identical.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

VIRTUAL = ("vt_call_us.p50", "vt_call_us.p99", "vt_img_per_s")


def start(bench, *extra):
    return subprocess.Popen([bench, "--scale", "0.01", "--seed", "7", *extra],
                            stdout=subprocess.PIPE, text=True)


def points(proc):
    out, _ = proc.communicate(timeout=170)
    if proc.returncode != 0:
        sys.exit(f"smoke: {' '.join(proc.args)} exited {proc.returncode}")
    doc = json.loads(out.splitlines()[-1])
    return {(p["table"], p["series"]): p for p in doc["points"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True)
    ap.add_argument("--spec", required=True)
    args = ap.parse_args()
    spec = json.loads(Path(args.spec).read_text())
    trace_dir = Path("smoke_trace")

    traced_run = start(args.bench, "--workload", "omb_small", "--trace", str(trace_dir))
    first = points(start(args.bench, "--out", "smoke_first.json"))
    second = points(start(args.bench, "--out", "smoke_second.json"))
    traced = points(traced_run)

    errors = []
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            p = first.get((w, m["name"]))
            if p is None:
                errors.append(f"{w}: no {m['name']}")
            elif p["unit"] != m["unit"]:
                errors.append(f"{w}: {m['name']} in {p['unit']}, "
                              f"BENCHMARK.json says {m['unit']}")
        if first.get((w, "fail_ratio"), {}).get("value") != 0:
            errors.append(f"{w}: fail_ratio is not 0")
        for name in VIRTUAL:
            a, b = first.get((w, name)), second.get((w, name))
            if (a is None) != (b is None) or (a and a["value"] != b["value"]):
                errors.append(f"{w}: {name} differs between two runs of one seed")
    for m in spec["per_layer"]:
        p = traced.get(("omb_small", m["name"]))
        if p is None:
            errors.append(f"traced omb_small: no {m['name']}")
        elif p["unit"] != m["unit"]:
            errors.append(f"traced omb_small: {m['name']} in {p['unit']}, "
                          f"BENCHMARK.json says {m['unit']}")
    # compare reads the bounds it judges by from the same table the
    # benchmark reports with; they must be BENCHMARK.json's.
    out = subprocess.run([args.bench, "compare", "smoke_first.json", "smoke_second.json"],
                         stdout=subprocess.PIPE, text=True, check=False).stdout
    bounds = {(cols[0], cols[1]): cols[5] for cols in map(str.split, out.splitlines())
              if len(cols) == 7}
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            want = f"{round(100 * m['bound'])}%"
            if bounds.get((w, m["name"])) != want:
                errors.append(f"compare: {w} {m['name']} bound is "
                              f"{bounds.get((w, m['name']))}, BENCHMARK.json says {want}")
    for name in ("layers.json", "host_trace.json"):
        try:
            json.loads((trace_dir / name).read_text())
        except (OSError, ValueError) as e:
            errors.append(f"{trace_dir / name}: {e}")

    for e in errors:
        print("smoke:", e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
