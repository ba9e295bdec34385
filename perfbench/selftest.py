"""Quick self-check of the benchmark (about 20 seconds):

    python3 perfbench/selftest.py

For every workload, at minimal size (one short unit, the smallest cases):

* a plain run must report every end-to-end metric of BENCHMARK.json and no
  failed operation;
* a run whose expected values are made wrong on purpose must report failed
  CLI commands and failed in-process requests, so a wrong answer cannot go
  unnoticed in either;
* a traced run must report every per-layer metric.

It also checks that the tracer skips and lists a wrapped name that no longer
exists, and puts every function it wrapped back.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(*args: str) -> tuple[dict, str]:
    """The result line of a minimal run, and the whole output."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "0",
                           "--smoke", *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def _check_missing_name_is_skipped() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import frepkit
    import tracer

    original = frepkit.analyze.file_size
    tracer.WRAPPED = tracer.WRAPPED + (("analyze.gone", "frepkit.analyze", "no_such_function"),)
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == ["frepkit.analyze.no_such_function"], t.missing
        assert frepkit.file_size is frepkit.analyze.file_size is frepkit.dress.file_size
        assert frepkit.analyze.file_size is not original
        code = frepkit.from_graph(frepkit.cage("petersen"))
        assert frepkit.file_size(code, 2) == 5
        assert t.calls["analyze.file_size"] == 1
    finally:
        t.uninstall()
    assert frepkit.analyze.file_size is original and frepkit.dress.file_size is original


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    _check_missing_name_is_skipped()
    print("ok  tracer skips and lists a missing name, and restores what it wrapped")
    for workload in (w["name"] for w in spec["workloads"]):
        plain, _ = _run("--workload", workload)
        assert plain["correct"] and plain["failed"] == 0, plain
        assert set(plain["metrics"]) == end_to_end, sorted(plain["metrics"])
        wrong, output = _run("--workload", workload, "--perturb-expected")
        assert wrong["failed"] > 0 and not wrong["correct"], wrong
        kinds = re.search(r"failed: cli (\d+) of (\d+), requests (\d+) of (\d+)", output)
        cli_failed, _, requests_failed, _ = map(int, kinds.groups())
        assert cli_failed > 0 and requests_failed > 0, kinds.group(0)
        traced, _ = _run("--workload", workload, "--trace", "1")
        assert traced["correct"], traced
        assert set(traced["metrics"]) == per_layer, sorted(traced["metrics"])
        print(f"ok  {workload}: {plain['attempted']} operations pass; with wrong expected "
              f"values {kinds.group(0)}; traced run complete")
    return 0


if __name__ == "__main__":
    sys.exit(main())
