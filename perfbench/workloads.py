"""The six frepkit benchmark workloads: their inputs, operations and checks.

Every workload has the same two parts, so that every workload reports the
same end-to-end metrics:

* a CLI pass: a fixed list of `frepkit` commands, each in a fresh process,
  one process at a time, so each pays interpreter start, import and input
  parsing as a user's command does;
* a closed loop of in-process library calls by a single client, warm as a
  library user's are.

Inputs come from the seed: symbol relabellings, requested symbol sets,
stored files, failed nodes and reader node subsets.  Every output is
checked; a wrong answer, an unexpected exception or an unexpected exit
status counts as one failed operation.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import frepkit

SRC = Path(__file__).resolve().parent.parent / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
CLI_TIMEOUT_S = 60

# Exact file sizes M(k), k = 1, 2, ..., from the enumeration at the seed
# commit; rows beyond the requested --k-max are ignored.
EXPECTED_M = {
    "tuttecoxeter": [3, 5, 7, 9, 11, 13, 15, 16, 18, 20],
    "mcgee": [3, 5, 7, 9, 11, 13, 14, 16, 18, 19, 21, 22],
    "td57": [7, 13, 18, 22, 25, 28, 30, 31, 34],
    "pg5": [6, 11, 15, 18, 20, 21, 23, 24, 25],
    "td77": [7, 13, 18, 22, 25, 27, 28],
}

# Exact batch parameters t.
EXPECTED_T = {
    "petersen": 7, "heawood": 8, "pappus": 9, "desargues": 9,
    "td34": 11, "td35": 12, "pg3": 13, "td45": 19,
}

# LCF notation (shifts, repetitions) of the cubic graphs the catalog lacks.
LCF = {"pappus": ([5, 7, -7, 7, -7, -5], 3), "desargues": ([5, -5, 9, -9], 5)}
DESIGNS = {"td34": (3, 4), "td35": (3, 5), "td45": (4, 5), "td57": (5, 7), "td77": (7, 7)}
PLANES = {"pg3": 3, "pg5": 5}

# DRESS parameters: TD(5,7) at k = 7 stores M = 30 symbols over GF(64).
DRESS_CODE, DRESS_K, DRESS_FIELD_Q = "td57", 7, 64


def build_code(name: str) -> frepkit.FrCode:
    if name in LCF:
        shifts, reps = LCF[name]
        n = len(shifts) * reps
        edges = {(u, u % n + 1) for u in range(1, n + 1)}
        for i in range(n):
            j = (i + shifts[i % len(shifts)]) % n
            edges.add((min(i, j) + 1, max(i, j) + 1))
        return frepkit.from_graph(frepkit.Graph(v=n, edges=sorted(edges)))
    if name in DESIGNS:
        return frepkit.from_design(frepkit.transversal_design(*DESIGNS[name]))
    if name in PLANES:
        return frepkit.from_design(frepkit.projective_plane(PLANES[name]))
    return frepkit.from_graph(frepkit.cage(name))


class Expect:
    """Expected values; perturb=True makes every one of them wrong on purpose,
    which the self-check uses to show that wrong output is counted, both in
    the CLI pass and in the requests."""

    def __init__(self, perturb: bool = False):
        self.perturb = perturb
        self.m = {name: [v + perturb for v in values] for name, values in EXPECTED_M.items()}
        self.t = {name: t + perturb for name, t in EXPECTED_T.items()}

    def file(self, symbols: list[int]) -> list[int]:
        return [symbols[0] ^ 1] + symbols[1:] if self.perturb else symbols

    def request(self, symbols: list[int]) -> list[int]:
        """The symbols a plan must cover, and a NoPlan witness lie within;
        perturbed, a set disjoint from the request."""
        return [-j for j in symbols] if self.perturb else symbols

    def node_bytes(self, data: bytes) -> bytes:
        return data + b"\n" if self.perturb else data


class SpeedGauge:
    """Tracks how fast the machine runs Python code at the moment.

    On a virtual machine that shares its cores with other tenants, the same
    Python code can run up to twice as fast at one moment as a few seconds
    later.  The gauge times a fixed piece of pure-Python work that does not
    touch frepkit (building a dict, sorting, JSON encoding); a latency
    measured next to gauge samples is rescaled by REFERENCE_S over them,
    which gives it at the speed where that work takes REFERENCE_S.  Runs
    made at different moments then compare, and no change to frepkit can
    move the gauge.
    """

    REFERENCE_S = 0.00045

    def __init__(self):
        self.samples: list[float] = []

    @staticmethod
    def _work() -> float:
        start = time.perf_counter()
        data = list(range(1500, 0, -1))
        table = {i: (i, str(i)) for i in data}
        ordered = sorted(data, key=lambda x: x % 97)
        json.dumps([table[i] for i in ordered[:300]])
        return time.perf_counter() - start

    def sample(self) -> float:
        value = min(self._work() for _ in range(3))
        self.samples.append(value)
        return value

    def rescale(self, before: float, after: float) -> float:
        """Factor for a latency measured between two samples."""
        return 2 * self.REFERENCE_S / (before + after)


def children_cpu_s() -> float:
    """CPU time, user and system, of all ended and waited-for child processes.

    A child's time is measured by the difference of two readings, one
    before it starts and one after it is waited for; the benchmark runs one
    child at a time.  Unlike the child's wall time, its CPU time leaves out
    the moments the virtual machine's CPU is taken away by the hypervisor
    (steal time), which come and go with other tenants' load and would make
    a single process's wall time vary by up to a quarter between runs.  For
    a command that runs on one thread, as every frepkit command does without
    --jobs, it is the wall time on a machine of its own.
    """
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Cli:
    """Runs frepkit commands one process at a time and keeps their timings.

    A command's time is its process's CPU time (children_cpu_s), rescaled by
    the speed gauge sampled just before and just after the command.  With
    tracing on, each command runs under perfbench/tracer.py, and the layer
    totals it writes are collected in self.snapshots with the process's raw
    wall time.
    """

    def __init__(self, workdir: Path, gauge: SpeedGauge):
        self.workdir = workdir
        self.gauge = gauge
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.traced = False
        self.snapshots: list[tuple[float, dict]] = []
        self._count = 0

    def run(self, *args: str) -> tuple[float, subprocess.CompletedProcess]:
        self._count += 1
        if self.traced:
            out = self.workdir / f"trace_{self._count}.json"
            cmd = [sys.executable, str(TRACER), str(out), *args]
        else:
            cmd = [sys.executable, "-m", "frepkit", *args]
        before = self.gauge.sample()
        cpu = children_cpu_s()
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:  # the child is killed and reaped
            proc = subprocess.CompletedProcess(cmd, -9, exc.stdout or "", "timed out")
        wall = time.perf_counter() - start
        cpu = children_cpu_s() - cpu
        if self.traced and out.exists():
            self.snapshots.append((wall, json.loads(out.read_text(encoding="ascii"))))
            out.unlink()
        return cpu * self.gauge.rescale(before, self.gauge.sample()), proc


class Tally:
    """Counts checked operations and failed ones, keeping a note on the first few."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def _relabel_symbols(code: frepkit.FrCode, rng: random.Random) -> frepkit.FrCode:
    perm = list(range(1, code.theta + 1))
    rng.shuffle(perm)
    return frepkit.FrCode(n=code.n, theta=code.theta, alpha=code.alpha, rho=code.rho,
                          node_sets=[[perm[j - 1] for j in s] for s in code.node_sets])


def _random_file(rng: random.Random, m_size: int) -> list[int]:
    return [rng.randrange(DRESS_FIELD_Q) for _ in range(m_size)]


def _write_file(path: Path, symbols: list[int]) -> None:
    path.write_text(" ".join(map(str, symbols)) + "\n", encoding="ascii")


def _read_file(path: Path) -> list[int]:
    return [int(x) for x in path.read_text(encoding="ascii").split()]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.strip().strip("[]").split(",") if x.strip()]


class Workload:
    """Base class: subclasses set the case lists and the operation."""

    name = ""
    codes: tuple[str, ...] = ()
    ops_per_unit = 1

    def __init__(self, seed: int, smoke: bool, expect: Expect):
        self.seed = seed
        self.smoke = smoke
        self.expect = expect
        self.rng = random.Random(seed)

    # set-up, run in a fresh process and timed as setup_s
    def setup(self, directory: Path) -> None:
        for name in self.codes:
            frepkit.save(build_code(name), directory / f"{name}.frc")

    # state for the timed part, built from the set-up directory
    def load(self, directory: Path) -> None:
        self.dir = directory
        self.loaded = {name: frepkit.load(directory / f"{name}.frc") for name in self.codes}

    def cli_pass(self, cli: Cli, tally: Tally) -> float:
        raise NotImplementedError

    def op(self, tally: Tally) -> float:
        """One closed-loop request; returns its latency in seconds."""
        raise NotImplementedError


class Capacity(Workload):
    """`frepkit analyze` in fresh processes, then file_size requests on
    symbol-relabelled copies of the codes, which never hit the package's
    per-code result cache and leave the search's work unchanged."""

    analyses: tuple[tuple[str, int | None], ...] = ()  # (code, --k-max)
    request = ("", 0)  # (code, k)
    smoke_analyses: tuple[tuple[str, int | None], ...] = ()
    smoke_request = ("", 0)

    def load(self, directory: Path) -> None:
        super().load(directory)
        if self.smoke:
            self.analyses, self.request = self.smoke_analyses, self.smoke_request

    def cli_pass(self, cli: Cli, tally: Tally) -> float:
        total = 0.0
        for name, k_max in self.analyses:
            args = ["analyze", f"{name}.frc", "--format", "json"]
            if k_max is not None:
                args += ["--k-max", str(k_max)]
            wall, proc = cli.run(*args)
            total += wall
            try:
                rows = [row["M"] for row in json.loads(proc.stdout)["rows"]]
            except (ValueError, KeyError, TypeError):
                rows = None
            want = k_max or self.loaded[name].alpha
            tally.check(proc.returncode == 0 and rows == self.expect.m[name][:want],
                        f"analyze {name}: exit {proc.returncode}, rows {rows}")
        return total

    def op(self, tally: Tally) -> float:
        name, k = self.request
        code = _relabel_symbols(self.loaded[name], self.rng)
        start = time.perf_counter()
        try:
            m_size = frepkit.file_size(code, k)
        except Exception as exc:  # an unexpected exception is a failed request
            m_size = repr(exc)
        latency = time.perf_counter() - start
        tally.check(m_size == self.expect.m[name][k - 1], f"file_size {name} k={k}: {m_size}")
        return latency


class CapacityCage(Capacity):
    name = "capacity-cage"
    codes = ("tuttecoxeter", "mcgee")
    analyses = (("tuttecoxeter", 10), ("mcgee", 12))
    request = ("tuttecoxeter", 6)
    smoke_analyses = (("mcgee", 5),)
    smoke_request = ("mcgee", 5)
    ops_per_unit = 24


class CapacityDesign(Capacity):
    name = "capacity-design"
    codes = ("td57", "pg5", "td77")
    analyses = (("td57", 9), ("pg5", 9), ("td77", None))
    request = ("td57", 6)
    smoke_analyses = (("td77", None),)
    smoke_request = ("td57", 5)
    ops_per_unit = 50


class Batch(Workload):
    """`frepkit batch --max-t` in fresh processes, then seeded
    retrieval_plan requests of size t and t + 1."""

    def load(self, directory: Path) -> None:
        super().load(directory)
        if self.smoke:
            self.codes = self.codes[:1]
        self.count = 0

    def cli_pass(self, cli: Cli, tally: Tally) -> float:
        total = 0.0
        for name in self.codes:
            wall, proc = cli.run("batch", f"{name}.frc", "--max-t")
            total += wall
            lines = proc.stdout.splitlines()
            t = witness = None
            nodes: list[int] = []
            try:
                t = int(lines[0].removeprefix("t = "))
                head, _, tail = lines[-1].partition(" touch only nodes ")
                witness = _ints(head.removeprefix("maximality witness: symbols "))
                nodes = _ints(tail)
            except (IndexError, ValueError):
                pass
            # the witness members may change with the search order; it must
            # still have t + 1 symbols on fewer nodes and admit no plan
            code = self.loaded[name]
            if t == code.theta:
                ok = lines[-1:] == [f"every symbol subset up to theta = {t} is retrievable"]
            else:
                ok = (witness is not None and len(witness) == t + 1
                      and len(nodes) < len(witness)
                      and {i for j in witness for i in code.nodes_of_symbol[j - 1]} <= set(nodes)
                      and isinstance(frepkit.retrieval_plan(code, witness), frepkit.NoPlan))
            ok = ok and proc.returncode == 0 and t == self.expect.t[name]
            tally.check(ok, f"batch {name}: exit {proc.returncode}, t {t}, witness {witness}")
        return total

    def op(self, tally: Tally) -> float:
        name = self.codes[(self.count // 2) % len(self.codes)]
        code = self.loaded[name]
        t = EXPECTED_T[name]
        size = min(t + self.count % 2, code.theta)
        self.count += 1
        symbols = self.rng.sample(range(1, code.theta + 1), size)
        start = time.perf_counter()
        try:
            plan = frepkit.retrieval_plan(code, symbols)
        except Exception as exc:  # an unexpected exception is a failed request
            plan = exc
        latency = time.perf_counter() - start
        tally.check(_plan_ok(code, self.expect.request(symbols), plan,
                             may_fail=size > EXPECTED_T[name]),
                    f"retrieval_plan {name} size {size}: {plan!r}")
        return latency


def _plan_ok(code, symbols, plan, may_fail: bool) -> bool:
    if isinstance(plan, frepkit.BatchPlan):
        nodes = [i for _, i in plan.assignment]
        return (sorted(j for j, _ in plan.assignment) == sorted(symbols)
                and len(set(nodes)) == len(nodes)
                and all(j in code.node_sets[i - 1] for j, i in plan.assignment))
    if isinstance(plan, frepkit.NoPlan):
        touched = {i for j in plan.witness for i in code.nodes_of_symbol[j - 1]}
        return may_fail and set(plan.witness) <= set(symbols) and len(touched) < len(plan.witness)
    return False


class BatchSparse(Batch):
    name = "batch-sparse"
    codes = ("petersen", "heawood", "pappus", "desargues")
    ops_per_unit = 20000


class BatchDense(Batch):
    name = "batch-dense"
    codes = ("td34", "td35", "pg3", "td45")
    ops_per_unit = 15000


class DressWrite(Workload):
    """Store, lose a node, read from k survivors, repair, verify: in-process
    cycles with fresh erasure patterns, and the same lifecycle through the
    CLI, where every process stores, loads the system and builds its field.

    The in-process request is the cycle after the store: the store's
    capacity lookup file_size(code, k), warm as in a library user's store,
    then the degraded read, the repair and the verification.  The rest of
    the store runs untimed: its time is mostly creating 36 files, and on the
    ext4 file system this benchmark was written on that cost, the kernel's
    CPU time included, drifted by up to three times within a minute with the
    kernel's state, whichever way the directories were reused.  The whole
    store is measured in the CLI pass (`frepkit store`) and, per layer, as
    dress.store_s.
    """

    name = "dress-write"
    codes = (DRESS_CODE,)
    ops_per_unit = 60

    def load(self, directory: Path) -> None:
        super().load(directory)
        self.code = self.loaded[DRESS_CODE]
        self.m_size = EXPECTED_M[DRESS_CODE][DRESS_K - 1]

    def cli_pass(self, cli: Cli, tally: Tally) -> float:
        name = "cli"
        root = self.dir / name
        shutil.rmtree(root, ignore_errors=True)
        symbols = _random_file(self.rng, self.m_size)
        _write_file(self.dir / "file.txt", symbols)
        failed = self.rng.randrange(1, self.code.n + 1)
        readers = sorted(self.rng.sample(range(1, self.code.n + 1), DRESS_K))
        wall, proc = cli.run("store", "--code", f"{DRESS_CODE}.frc", "--k", str(DRESS_K),
                             "--root", name, "--file", "file.txt")
        total = wall
        tally.check(proc.returncode == 0, f"store: exit {proc.returncode} {proc.stderr}")
        node = root / f"node_{failed}.dat"
        original = node.read_bytes() if node.exists() else b""
        if node.exists():
            node.unlink()
        wall, proc = cli.run("repair", "--root", name, "--failed", str(failed),
                             "--policy", "spread")
        total += wall
        repaired = node.read_bytes() if node.exists() else None
        tally.check(proc.returncode == 0 and repaired == self.expect.node_bytes(original),
                    f"repair node {failed}: exit {proc.returncode} {proc.stderr}")
        wall, proc = cli.run("reconstruct", "--root", name,
                             "--nodes", ",".join(map(str, readers)))
        total += wall
        tally.check(_cli_file_ok(proc, self.expect.file(symbols)),
                    f"reconstruct {readers}: exit {proc.returncode} {proc.stderr}")
        return total

    def op(self, tally: Tally) -> float:
        symbols = _random_file(self.rng, self.m_size)
        failed = self.rng.randrange(1, self.code.n + 1)
        survivors = [i for i in range(1, self.code.n + 1) if i != failed]
        readers = sorted(self.rng.sample(survivors, DRESS_K))
        root = self.dir / "lib"
        node = root / f"node_{failed}.dat"
        shutil.rmtree(root, ignore_errors=True)
        start = time.perf_counter()
        try:
            system = frepkit.store(self.code, DRESS_K, symbols, root)
            original = node.read_bytes()
            start = time.perf_counter()
            m_size = frepkit.file_size(self.code, DRESS_K)
            node.unlink()
            recovered = frepkit.reconstruct(system, readers)
            plan = frepkit.plan_repair(system, failed, policy="spread")
            frepkit.execute_repair(system, plan)
            frepkit.verify_integrity(root)
            latency = time.perf_counter() - start
            ok = (m_size == self.expect.m[DRESS_CODE][DRESS_K - 1]
                  and recovered == self.expect.file(symbols)
                  and node.read_bytes() == self.expect.node_bytes(original))
        except Exception as exc:  # an unexpected exception is a failed cycle
            latency, ok, recovered = time.perf_counter() - start, False, repr(exc)
        tally.check(ok, f"dress cycle, failed node {failed}, readers {readers}: {recovered}")
        return latency


class DressRead(Workload):
    """Reads only: reconstruct from a small seeded set of node subsets, so
    nearly every erasure pattern repeats; the CLI pass reads cold."""

    name = "dress-read"
    codes = (DRESS_CODE,)
    ops_per_unit = 100
    reader_sets = 8

    def setup(self, directory: Path) -> None:
        super().setup(directory)
        code = frepkit.load(directory / f"{DRESS_CODE}.frc")
        m_size = frepkit.file_size(code, DRESS_K)
        symbols = _random_file(self.rng, m_size)
        _write_file(directory / "file.txt", symbols)
        frepkit.store(code, DRESS_K, symbols, directory / "sys", seed=self.seed)

    def load(self, directory: Path) -> None:
        super().load(directory)
        n = self.loaded[DRESS_CODE].n
        self.readers = [sorted(self.rng.sample(range(1, n + 1), DRESS_K))
                        for _ in range(self.reader_sets)]
        self.symbols = _read_file(directory / "file.txt")
        self.system = frepkit.load_system(directory / "sys")

    def cli_pass(self, cli: Cli, tally: Tally) -> float:
        total = 0.0
        for readers in self.rng.sample(self.readers, 2):
            wall, proc = cli.run("reconstruct", "--root", "sys",
                                 "--nodes", ",".join(map(str, readers)))
            total += wall
            tally.check(_cli_file_ok(proc, self.expect.file(self.symbols)),
                        f"reconstruct {readers}: exit {proc.returncode} {proc.stderr}")
        return total

    def op(self, tally: Tally) -> float:
        readers = self.readers[self.rng.randrange(self.reader_sets)]
        start = time.perf_counter()
        try:
            recovered = frepkit.reconstruct(self.system, readers)
        except Exception as exc:  # an unexpected exception is a failed read
            recovered = repr(exc)
        latency = time.perf_counter() - start
        tally.check(recovered == self.expect.file(self.symbols),
                    f"reconstruct {readers}: {recovered}")
        return latency


def _cli_file_ok(proc: subprocess.CompletedProcess, expected: list[int]) -> bool:
    lines = proc.stdout.splitlines()
    return (proc.returncode == 0 and len(lines) == 2
            and lines[0] == "file: " + " ".join(map(str, expected))
            and lines[1] == "digest: matches manifest")


WORKLOADS = {w.name: w for w in (CapacityCage, CapacityDesign, BatchSparse, BatchDense,
                                  DressWrite, DressRead)}
