"""Run the benchmark over ten seeds and summarise each metric.

    python3 perfbench/sweep.py [--out FILE.json]

For every workload of BENCHMARK.json it runs perfbench/run.py for
run_seconds once per seed 1..10 (untraced), then once traced on seed 1, and
prints each end-to-end metric's median, quartiles and spread (the distance
between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them), with the traced run's
tracing overhead.  --out writes the same, per-layer values included, as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
TRACED_SEED = 1


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="perfbench/sweep.py")
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    report = {"seeds": f"{SEEDS[0]}-{SEEDS[-1]}", "run_seconds": seconds,
              "python": platform.python_version(), "machine": platform.machine(),
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, seconds, 0) for seed in SEEDS]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        print(f"{workload}: {entry['failed']} of {entry['attempted']} operations failed")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "values": values}
            print(f"  {name:14s} median {median:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  "
                  f"spread {(q3 - q1) / median:.3f}")
        traced = _run(workload, TRACED_SEED, seconds, 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        print(f"  traced seed {TRACED_SEED}: overhead ratio "
              f"{entry['per_layer']['trace.overhead_ratio']:.3f}")
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
