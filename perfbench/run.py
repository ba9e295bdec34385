"""The frepkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it reads the package from src/ and
writes only under .perfbench_tmp/, which it removes before it exits.

A run repeats units until --seconds is used up (at least two units).  A
unit is one CLI pass of the workload, each command in a fresh `frepkit`
process, followed by a fixed number of in-process requests from a single
closed-loop client.  Every output is checked.  Every time is rescaled to a
reference machine speed by workloads.SpeedGauge.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics:

    setup_s      median time of five input set-ups, each in a fresh
                 process (interpreter start, import, building the inputs)
    peak_rss_mb  largest resident set of this process or any child
    cli_pass_s   median over units of the CLI pass's time
    op_p50_ms    median over units of each unit's median request latency

A process's time (set-up, CLI command) is its CPU time, user and system
(workloads.children_cpu_s); a request's latency is its wall time.

With --trace 1, units alternate between untraced and traced, and the last
line holds the per-layer metrics of perfbench/tracer.py, per traced unit,
with the tracing overhead as the ratio of the traced to the untraced median
request latency, and
client.op_p90_ms: the median over the untraced units of each unit's
90th-percentile request latency.  On a machine shared with other tenants
that tail moves between runs by more than any bound the benchmark may set,
so it is reported here, without a bound.

The workloads and what each metric should move are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5
MIN_UNITS = 2


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # used by the benchmark itself: the timed set-up step, and the self-check
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--perturb-expected", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _setup(args, directory: Path, gauge) -> float:
    """One set-up in a fresh process; returns its CPU time, rescaled."""
    import workloads  # importable once main has put src/ on the path

    directory.mkdir(parents=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-into", str(directory)]
    if args.smoke:
        cmd.append("--smoke")
    before = gauge.sample()
    cpu = workloads.children_cpu_s()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    cpu = workloads.children_cpu_s() - cpu
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return cpu * gauge.rescale(before, gauge.sample())


def _layer_metrics(agg: dict, units: int, cli_startup: list[float], patterns: list,
                   overhead: float) -> dict:
    calls, self_s, count = agg["calls"], agg["self"], agg["counters"]

    def per_unit(value):
        return value / units

    seen: set = set()
    reused = 0
    for pattern in patterns:
        reused += pattern in seen
        seen.add(pattern)
    plans = calls["batch.retrieval_plan"]
    metrics = {
        "analyze.file_size.calls": (per_unit(calls["analyze.file_size"]), "count"),
        "analyze.file_size_s": (per_unit(self_s["analyze.file_size"]), "s"),
        "analyze.file_size.nominal_subsets": (per_unit(count["file_size_nominal"]), "count"),
        "analyze.capacity_profile_s": (per_unit(self_s["analyze.capacity_profile"]), "s"),
        "batch.batch_t_detail.calls": (per_unit(calls["batch.batch_t_detail"]), "count"),
        "batch.batch_t_detail_s": (per_unit(self_s["batch.batch_t_detail"]), "s"),
        "batch.batch_t_detail.nominal_subsets": (per_unit(count["batch_t_nominal"]), "count"),
        "batch.retrieval_plan_s": (per_unit(self_s["batch.retrieval_plan"]), "s"),
        "batch.noplan_share": (count["noplan"] / plans if plans else 0.0, "ratio"),
        "matching.maximum_matching.calls": (per_unit(calls["matching.maximum_matching"]),
                                            "count"),
        "matching.maximum_matching_s": (per_unit(self_s["matching.maximum_matching"]), "s"),
        "matching.hall_witness_s": (per_unit(self_s["matching.hall_witness"]), "s"),
        "galois.decode.calls": (per_unit(calls["galois.decode"]), "count"),
        "galois.decode_s": (per_unit(self_s["galois.decode"]), "s"),
        "galois.decode.pattern_reuse": (reused / len(patterns) if patterns else 0.0, "ratio"),
        "galois.encode_s": (per_unit(self_s["galois.encode"]), "s"),
        "galois.field_build.calls": (per_unit(calls["galois.field_build"]), "count"),
        "galois.field_build_s": (per_unit(self_s["galois.field_build"]), "s"),
        "dress.bytes_read": (per_unit(count["bytes_read"]), "bytes"),
        "dress.bytes_written": (per_unit(count["bytes_written"]), "bytes"),
        "dress.stored_bytes_per_symbol": (
            count["stored_bytes"] / count["stored_symbols"] if count["stored_symbols"] else 0.0,
            "bytes/symbol"),
        "incidence.load_s": (per_unit(self_s["incidence.load"]), "s"),
        "incidence.validate_s": (per_unit(self_s["incidence.validate"]), "s"),
        "cli.startup_s": (statistics.mean(cli_startup) if cli_startup else 0.0, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.missing_names": (len(agg["missing"]), "count"),
    }
    for op in ("store", "load_system", "reconstruct", "plan_repair", "execute_repair"):
        metrics[f"dress.{op}_s"] = (per_unit(self_s[f"dress.{op}"]), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _timed_ops(workload, tally, gauge, count: int) -> list[float]:
    """Latencies of count requests in chunks of about a twentieth, the gauge
    sampled between chunks.  Each chunk is rescaled by the median of the six
    samples nearest to it, so that the noise of a single gauge sample does
    not widen the distribution's tail."""
    every = max(1, count // 20)
    chunks = []
    samples = [gauge.sample()]
    for first in range(0, count, every):
        chunks.append([workload.op(tally) for _ in range(min(every, count - first))])
        samples.append(gauge.sample())
    latencies: list[float] = []
    for i, chunk in enumerate(chunks):
        nearby = samples[max(0, i - 2): i + 4]
        factor = gauge.REFERENCE_S / statistics.median(nearby)
        latencies.extend(x * factor for x in chunk)
    return latencies


def _measure(args, workload, cli, tallies):
    """Run units until the time is up; returns the metrics for the last line.
    tallies["cli"] counts the CLI commands' checks, tallies["requests"] the
    in-process requests'."""
    unit_p90: list[float] = []
    passes: list[float] = []
    op_medians = {False: [], True: []}  # each unit's median request latency
    walls: list[float] = []
    spans = tracer.Tracer() if args.trace else None
    agg = tracer.empty_snapshot()
    patterns: list = []
    cli_startup: list[float] = []
    ops_per_unit = min(workload.ops_per_unit, 5) if args.smoke else workload.ops_per_unit
    deadline = time.perf_counter() + args.seconds
    min_units = 1 if args.smoke and not args.trace else MIN_UNITS
    # warm-up, untimed: lazy set-up and caches fill as a library user's do
    workload.op(tallies["requests"])
    while True:
        traced = bool(args.trace) and len(walls) % 2 == 1
        if traced:
            spans.install()
            cli.traced = True
            cli.snapshots.clear()
            first_pattern = len(spans.patterns)
        start = time.perf_counter()
        pass_s = workload.cli_pass(cli, tallies["cli"])
        ops = _timed_ops(workload, tallies["requests"], cli.gauge, ops_per_unit)
        walls.append(time.perf_counter() - start)
        op_medians[traced].append(statistics.median(ops))
        if traced:
            spans.uninstall()
            cli.traced = False
            for process_wall, snapshot in cli.snapshots:
                tracer.merge(agg, snapshot)
                patterns.extend(tuple(p) for p in snapshot["patterns"])
                cli_startup.append(process_wall - snapshot["total"]["cli.main"])
            patterns.extend(spans.patterns[first_pattern:])
        else:
            unit_p90.append(_p90(ops))
            passes.append(pass_s)
        if len(walls) >= min_units and time.perf_counter() + statistics.median(walls) > deadline:
            break
    speed = [cli.gauge.REFERENCE_S / x for x in cli.gauge.samples]
    print(f"{args.workload}: {len(walls)} units ({len(passes)} untraced) of {ops_per_unit} "
          f"requests after a CLI pass; machine speed relative to the reference: median "
          f"{statistics.median(speed):.3f}, range {min(speed):.3f}..{max(speed):.3f}")
    if not args.trace:
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return {
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
            "cli_pass_s": {"value": statistics.median(passes), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(op_medians[False]) * 1e3, "unit": "ms"},
        }
    own = spans.snapshot()
    own["patterns"] = []  # already taken unit by unit, in order with the CLI's
    tracer.merge(agg, own)
    overhead = statistics.median(op_medians[True]) / statistics.median(op_medians[False])
    if agg["missing"]:
        print("trace: skipped names that no longer exist:", ", ".join(agg["missing"]))
    metrics = _layer_metrics(agg, len(op_medians[True]), cli_startup, patterns, overhead)
    metrics["client.op_p90_ms"] = {"value": statistics.median(unit_p90) * 1e3, "unit": "ms"}
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "frepkit" / "__init__.py").is_file():
        print(f"error: no frepkit package under {SRC}; run from a frepkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_into:
        cls(args.seed, args.smoke, workloads.Expect()).setup(Path(args.setup_into))
        return 0

    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        gauge = workloads.SpeedGauge()
        setups = 1 if args.trace or args.smoke else SETUPS
        setup_times = [_setup(args, scratch / f"setup{i}", gauge) for i in range(setups)]
        inputs = scratch / f"setup{setups - 1}"
        workload = cls(args.seed, args.smoke, workloads.Expect(args.perturb_expected))
        workload.load(inputs)
        cli = workloads.Cli(inputs, gauge)
        tallies = {"cli": workloads.Tally(), "requests": workloads.Tally()}
        metrics = _measure(args, workload, cli, tallies)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                   **metrics}
    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    for tally in tallies.values():
        for note in tally.notes:
            print("FAILED:", note)
    print(f"failed_ratio {failed / max(attempted, 1):.6f} ({failed} of {attempted} checked "
          f"operations; failed: " + ", ".join(f"{kind} {t.failed} of {t.attempted}"
                                                for kind, t in tallies.items()) + ")")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
