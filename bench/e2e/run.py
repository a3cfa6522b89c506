#!/usr/bin/env python3
"""Build mpixccl_bench from source and run one workload.

    python3 bench/e2e/run.py --workload omb_small --seed 1 --seconds 10 --trace 0

Builds into $CARGO_TARGET_DIR (default .bench_build) under the repository
root, runs the workload for --seconds, and prints the benchmark's tables
followed by one JSON line: {"correct", "attempted", "failed", "metrics"},
where metrics are the BENCHMARK.json end_to_end rows (--trace 0) or its
per_layer rows (--trace 1, which also writes layers.json and
host_trace.json under <build dir>/trace/<workload>/).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: library sources not found under {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "mpixccl_bench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return build_dir / "mpixccl_bench"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    exe = build(build_dir)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.trace:
        cmd += ["--trace", str(build_dir / "trace" / args.workload)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.splitlines()
    if not lines:
        sys.exit(f"run.py: mpixccl_bench exited {proc.returncode} without a result")
    print("\n".join(lines[:-1]))

    points = {p["series"]: p["value"] for p in json.loads(lines[-1])["points"]
              if p["table"] == args.workload}
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] not in points:
            sys.exit(f"run.py: {args.workload} did not report {m['name']}")
        metrics[m["name"]] = {"value": points[m["name"]], "unit": m["unit"]}
    failed = int(points["failed"])
    print(json.dumps({"correct": proc.returncode == 0 and failed == 0,
                      "attempted": int(points["attempted"]),
                      "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
