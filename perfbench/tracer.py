"""Layer spans for the frepkit benchmark, recorded from outside the package.

Tracer.install() wraps the public functions of each frepkit module and
rebinds every reference to them, found by identity, in every frepkit.*
namespace, so calls made between modules are seen too.  Nothing under src/
changes.  A wrapped name that no longer exists is skipped and reported in
Tracer.missing, so renames in the package do not break the benchmark.

Each span adds its wall time to its layer's total and subtracts the time of
the spans nested inside it to give the layer's self time.  Counts that the
package does not report are computed here from arguments, results and file
sizes: nominal subset counts, NoPlan results, decode position patterns and
bytes of node files touched.

Run as a script, the module is the traced form of the frepkit command:

    python3 perfbench/tracer.py OUT.json <frepkit arguments>

It runs the frepkit command with the tracer installed and writes the layer
totals to OUT.json before exiting with the command's status.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import runpy
import sys
import time
from pathlib import Path

# (span name, module, attribute path); a dotted path names a method.
WRAPPED = (
    ("analyze.file_size", "frepkit.analyze", "file_size"),
    ("analyze.capacity_profile", "frepkit.analyze", "capacity_profile"),
    ("batch.batch_t_detail", "frepkit.batch", "batch_t_detail"),
    ("batch.retrieval_plan", "frepkit.batch", "retrieval_plan"),
    ("matching.maximum_matching", "frepkit.matching", "maximum_matching"),
    ("matching.hall_witness", "frepkit.matching", "hall_witness"),
    ("galois.field_build", "frepkit.galois", "GF.__init__"),
    ("galois.encode", "frepkit.galois", "MdsCode.encode"),
    ("galois.decode", "frepkit.galois", "MdsCode.decode"),
    ("dress.store", "frepkit.dress", "store"),
    ("dress.load_system", "frepkit.dress", "load_system"),
    ("dress.reconstruct", "frepkit.dress", "reconstruct"),
    ("dress.plan_repair", "frepkit.dress", "plan_repair"),
    ("dress.execute_repair", "frepkit.dress", "execute_repair"),
    ("incidence.load", "frepkit.incidence", "load"),
    ("incidence.validate", "frepkit.incidence", "validate"),
    ("cli.main", "frepkit.cli", "main"),
)

COUNTERS = ("file_size_nominal", "batch_t_nominal", "noplan", "bytes_read",
            "bytes_written", "stored_bytes", "stored_symbols")


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Per-layer call counts, wall time and self time, plus outside counts."""

    def __init__(self):
        self.calls = {name: 0 for name, _, _ in WRAPPED}
        self.total = {name: 0.0 for name, _, _ in WRAPPED}
        self.self_time = {name: 0.0 for name, _, _ in WRAPPED}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.patterns: list[tuple[int, ...]] = []
        self.missing: list[str] = []
        self._children: list[float] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import frepkit.cli  # noqa: F401  (loads every frepkit module)

        self.missing = []
        for span, module_name, path in WRAPPED:
            *prefix, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in prefix:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if prefix else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(span, original)
            if prefix:
                self._rebind(owner, attr, original, wrapper)
            else:
                for name, module in list(sys.modules.items()):
                    if name == "frepkit" or name.startswith("frepkit."):
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, span: str, fn):
        signature = inspect.signature(fn)
        hook = getattr(self, "_after_" + span.replace(".", "_"), None)
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span == "galois.decode":
                # the hook reads the coordinates again, so a generator must not run dry
                bound = signature.bind(*args, **kwargs)
                if "coords" in bound.arguments:
                    bound.arguments["coords"] = list(bound.arguments["coords"])
                    args, kwargs = bound.args, bound.kwargs
            children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                self.calls[span] += 1
                self.total[span] += elapsed
                self.self_time[span] += elapsed - inner
            if hook is not None:
                try:
                    hook(signature.bind(*args, **kwargs).arguments, result)
                except (KeyError, AttributeError, TypeError):
                    # a renamed parameter or result field: the counts are skipped
                    if f"{span} arguments" not in self.missing:
                        self.missing.append(f"{span} arguments")
            return result

        return wrapper

    # -- outside counts -----------------------------------------------------

    def _after_analyze_file_size(self, a, result) -> None:
        self.counters["file_size_nominal"] += math.comb(a["code"].n, a["k"])

    def _after_batch_batch_t_detail(self, a, result) -> None:
        code = a["code"]
        low = min(len(h) for h in code.nodes_of_symbol)
        high = min(result.t, code.n, code.theta - 1)
        self.counters["batch_t_nominal"] += sum(
            math.comb(code.n, size) for size in range(low, high + 1))

    def _after_batch_retrieval_plan(self, a, result) -> None:
        if type(result).__name__ == "NoPlan":
            self.counters["noplan"] += 1

    def _after_galois_decode(self, a, result) -> None:
        self.patterns.append(tuple(sorted({pos for pos, _ in a["coords"]})))

    def _after_dress_store(self, a, result) -> None:
        code = a["code"]
        node_bytes = sum(_size(result.node_path(i)) for i in range(1, code.n + 1))
        self.counters["bytes_written"] += node_bytes + _size(Path(a["root"]) / "manifest.json")
        self.counters["stored_bytes"] += node_bytes
        self.counters["stored_symbols"] += code.n * code.alpha

    def _after_dress_load_system(self, a, result) -> None:
        self.counters["bytes_read"] += _size(Path(a["root"]) / "manifest.json") + sum(
            _size(result.node_path(i)) for i in result.node_contents)

    def _after_dress_reconstruct(self, a, result) -> None:
        system = a["system"]
        self.counters["bytes_read"] += sum(_size(system.node_path(i)) for i in set(a["nodes"]))

    def _after_dress_execute_repair(self, a, result) -> None:
        system, plan = a["system"], a["plan"]
        repaired = _size(system.node_path(plan.failed))
        donors = sum(_size(system.node_path(donor)) for _, donor in plan.transfers)
        # donors, the manifest, and the repaired file read back for its checksum
        self.counters["bytes_read"] += donors + _size(system.root / "manifest.json") + repaired
        self.counters["bytes_written"] += repaired

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "counters": dict(self.counters),
                "patterns": [list(p) for p in self.patterns],
                "missing": list(self.missing)}


def merge(into: dict, part: dict) -> None:
    """Add one snapshot's totals into another, in place."""
    for key in ("calls", "total", "self", "counters"):
        for name, value in part[key].items():
            into[key][name] = into[key].get(name, 0) + value
    into["patterns"].extend(part["patterns"])
    for name in part["missing"]:
        if name not in into["missing"]:
            into["missing"].append(name)


def empty_snapshot() -> dict:
    return Tracer().snapshot()


def _traced_cli(out_path: str, argv: list[str]) -> None:
    """Run `python -m frepkit argv` with the tracer installed."""
    tracer = Tracer()
    tracer.install()
    sys.argv = ["frepkit", *argv]
    try:
        runpy.run_module("frepkit", run_name="__main__", alter_sys=True)
    finally:
        Path(out_path).write_text(json.dumps(tracer.snapshot()), encoding="ascii")


if __name__ == "__main__":
    _traced_cli(sys.argv[1], sys.argv[2:])
