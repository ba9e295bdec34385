"""The DRESS storage pipeline: MDS-encode a file, spread the codeword over
nodes per an FR code, reconstruct from any k nodes, and repair failed nodes
by uncoded transfer.

On disk a stored system is a directory holding manifest.json plus one
node_<i>.dat per node.  A node file starts with "i alpha" and then lists
"j value" lines in ascending symbol order.  load_system reads only the
manifest.  An operation reads just the node files it uses (reconstruct its
k nodes, a repair its donors) and checks each against the manifest's SHA-256
before using a value; reconstruct also checks the decoded file against the
manifest's file digest.  Repairs copy symbol values from donors without
field arithmetic and write the file only once its bytes match the manifest
checksum.  Every write goes to a temporary name and is renamed into place,
so readers never see a partly written file.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import NamedTuple

from .errors import CorruptionError, FrepkitError, IrreparableError, ParameterError, _integer
from .galois import GF, MdsCode, default_field_for
from .incidence import FrCode, validate
from .matching import maximum_matching

__all__ = [
    "StoredSystem",
    "RepairPlan",
    "store",
    "load_system",
    "reconstruct",
    "plan_repair",
    "execute_repair",
    "verify_integrity",
    "file_digest",
]

MANIFEST_NAME = "manifest.json"
REPAIR_POLICIES = ("lowest", "spread")


def __getattr__(name: str):  # dress.file_size, read by the tracer's self-check
    if name == "file_size":
        from .analyze import file_size
        return file_size
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class StoredSystem:
    """A DRESS instance persisted under root; single-writer, multi-reader."""

    def __init__(self, code: FrCode, field: GF, mds: MdsCode, k: int, m_size: int,
                 root: Path, file_sha256: str, checksums: dict[str, str],
                 seed: int | None = None):
        self.code, self.field, self.mds, self.k, self.m_size = code, field, mds, k, m_size
        self.root, self.file_sha256, self.seed = root, file_sha256, seed
        self.checksums = checksums  # node file name -> SHA-256 of its bytes

    def node_path(self, i: int) -> Path:
        return self.root / f"node_{i}.dat"


class RepairPlan(NamedTuple):
    """Donor assignment for one failed node: one symbol per transfer."""

    failed: int
    transfers: tuple[tuple[int, int], ...]  # (symbol, donor), symbol-ascending
    d: int     # distinct donors contacted
    beta: int  # largest per-donor transfer count; 1 when donors are distinct

    @property
    def bandwidth(self) -> int:
        return len(self.transfers)


def file_digest(symbols) -> str:
    return hashlib.sha256(" ".join(str(v) for v in symbols).encode("ascii")).hexdigest()


def _mds_block(theta: int) -> dict:
    """The manifest's outer-code block: systematic at points 0..theta-1."""
    return {"systematic": True, "eval_points": list(range(theta))}


def _node_text(i: int, contents: dict[int, int], alpha: int) -> str:
    lines = [f"{i} {alpha}"]
    lines.extend(f"{j} {contents[j]}" for j in sorted(contents))
    return "\n".join(lines) + "\n"


def _write_atomic(path: Path, data: bytes) -> None:
    """Replace path by data in one rename; a crash leaves the old file whole."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def store(code: FrCode, k: int, file_symbols, root, field: GF | None = None,
          seed: int | None = None, budget: int | None = None) -> StoredSystem:
    """Encode file_symbols and persist the system under root.

    The file must have exactly M = file_size(code, k, budget) symbols and k
    must stay within the reconstruction range k <= alpha.  A root that
    already holds a manifest is refused: rewriting a system in place would
    leave neither file recoverable if the store were cut off midway.
    """
    from .analyze import file_size  # only store searches; reading needs no search code
    report = validate(code)
    if not report.valid:
        raise ParameterError("refusing to store on an invalid FR code; run validate()")
    if _integer(k, "k") < 1:
        raise ParameterError(f"k must be positive, got {k}")
    if k > code.alpha:
        raise ParameterError(f"k = {k} exceeds alpha = {code.alpha}")
    root = Path(root)
    if (root / MANIFEST_NAME).exists():
        raise ParameterError(f"{root} already holds a stored system; store into a new root")
    m_size = file_size(code, k, budget=budget)
    file_symbols = list(file_symbols)
    if len(file_symbols) != m_size:
        raise ParameterError(
            f"file length {len(file_symbols)} differs from M = {m_size} for k = {k}")
    field = field if field is not None else default_field_for(code.theta)
    mds = MdsCode(field=field, length=code.theta, dimension=m_size)
    codeword = mds.encode(file_symbols)
    root.mkdir(parents=True, exist_ok=True)
    contents = {i: {j: codeword[j - 1] for j in code.node_sets[i - 1]}
                for i in range(1, code.n + 1)}
    checksums = {}
    for i in range(1, code.n + 1):
        data = _node_text(i, contents[i], code.alpha).encode("ascii")
        checksums[f"node_{i}.dat"] = hashlib.sha256(data).hexdigest()
        _write_atomic(root / f"node_{i}.dat", data)
    manifest = {
        "schema": "frepkit-system/1",
        "code": {"n": code.n, "theta": code.theta, "alpha": code.alpha,
                 "rho": code.rho, "node_sets": [list(s) for s in code.node_sets]},
        "field": field.spec(),
        "mds": _mds_block(code.theta),
        "k": k,
        "M": m_size,
        "file_sha256": file_digest(file_symbols),
        "seed": seed,
        "checksums": checksums,
    }
    _write_atomic(root / MANIFEST_NAME,
                  (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("ascii"))
    return StoredSystem(code=code, field=field, mds=mds, k=k, m_size=m_size, root=root,
                        file_sha256=manifest["file_sha256"], checksums=checksums, seed=seed)


def load_system(root) -> StoredSystem:
    """Rebuild a StoredSystem from its manifest; node files are read on use."""
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="ascii"))
        c = manifest["code"]
        code = FrCode(n=c["n"], theta=c["theta"], alpha=c["alpha"], rho=c["rho"],
                      node_sets=c["node_sets"])
        field = GF.from_spec(manifest["field"])
        mds = MdsCode(field=field, length=code.theta, dimension=manifest["M"])
        k, file_sha256, listed = manifest["k"], manifest["file_sha256"], manifest["checksums"]
        if not 1 <= _integer(k, "k") <= code.alpha:
            raise ParameterError(f"k = {k} is outside 1..alpha = {code.alpha}")
        checksums = {f"node_{i}.dat": listed[f"node_{i}.dat"] for i in range(1, code.n + 1)}
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError,
            ParameterError) as exc:
        raise CorruptionError(f"{manifest_path}: unreadable manifest ({exc!r})") from None
    if manifest.get("mds") != _mds_block(code.theta):
        raise CorruptionError(f"{manifest_path}: outer code {manifest.get('mds')!r} "
                              f"is not systematic at points 0..theta-1")
    return StoredSystem(code=code, field=field, mds=mds, k=k, m_size=mds.dimension,
                        root=root, file_sha256=file_sha256, checksums=checksums,
                        seed=manifest.get("seed"))


def _read_node(system: StoredSystem, i: int) -> dict[int, int] | None:
    """Node i's {symbol: value} map, or None when its file is missing; the
    one node-file reader, which parses and hashes the bytes it read."""
    path = system.node_path(i)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    rows = []
    for line_no, line in enumerate(data.splitlines(), start=1):
        try:
            a, b = map(int, line.split())
        except ValueError:
            raise CorruptionError(
                f"{path}:{line_no}: expected two integers, got {line!r}") from None
        rows.append((a, b))
    if not rows:
        raise CorruptionError(f"{path}: empty node file")
    (node_id, _alpha), *rows = rows
    if node_id != i:
        raise CorruptionError(f"{path} claims node id {node_id}")
    expected, actual = system.checksums[path.name], hashlib.sha256(data).hexdigest()
    if actual != expected:
        raise CorruptionError(f"{path} checksum mismatch: manifest {expected}, file {actual}")
    return dict(rows)


def verify_integrity(root) -> None:
    """Raise CorruptionError on a manifest or a present node file that is
    corrupt; missing node files are failed nodes and are skipped."""
    system = load_system(root)
    for i in range(1, system.code.n + 1):
        _read_node(system, i)


def reconstruct(system: StoredSystem, nodes) -> list[int]:
    """Recover the stored file from exactly k node files and check it
    against the manifest's file digest."""
    nodes = list(nodes)
    for i in nodes:
        if type(i) is not int:
            _integer(i, "node id")
    chosen = sorted(set(nodes))
    if len(chosen) != system.k or len(chosen) != len(nodes):
        raise ParameterError(
            f"reconstruction needs exactly k = {system.k} distinct nodes, got {nodes}")
    coords = []
    covered = set()
    for i in chosen:
        if not 1 <= i <= system.code.n:
            raise ParameterError(f"node id {i} out of range 1..{system.code.n}")
        node_map = _read_node(system, i)
        if node_map is None:
            raise FrepkitError(f"node file {system.node_path(i)} is missing; repair it first")
        for j, v in node_map.items():
            coords.append((j - 1, v))
            covered.add(j)
    if len(covered) < system.m_size:
        raise FrepkitError(
            f"nodes {chosen} jointly hold {len(covered)} coordinates, fewer than "
            f"M = {system.m_size}: the stored system violates its own contract")
    recovered = system.mds.decode(coords)
    if file_digest(recovered) != system.file_sha256:
        raise CorruptionError("recovered file does not match the stored digest")
    return recovered


def plan_repair(system: StoredSystem, failed: int, policy: str = "lowest",
                dead=()) -> RepairPlan:
    """Pick one donor per lost symbol among the surviving replicas.

    A maximum matching assigns the donors, so no donor serves two symbols
    whenever a system of distinct donors exists, and otherwise the reuse
    reported is the minimum possible.  The matching scans each symbol's
    donors in ascending order, so it takes the smallest donors whenever they
    are distinct.  Both policies, "lowest" and "spread", name this one plan.
    Extra dead nodes model multi-failure and make symbols without survivors
    irreparable.
    """
    if policy not in REPAIR_POLICIES:
        raise ParameterError(f"unknown policy {policy!r}; choose from {REPAIR_POLICIES}")
    dead = tuple(dead)
    for i in (failed, *dead):
        if type(i) is not int:
            _integer(i, "node id")
        if not 1 <= i <= system.code.n:
            raise ParameterError(f"node id {i} out of range 1..{system.code.n}")
    unavailable = {failed} | set(dead)
    lost = system.code.node_sets[failed - 1]
    candidates = []
    for j in lost:
        donors = [i for i in system.code.nodes_of_symbol[j - 1] if i not in unavailable]
        if not donors:
            raise IrreparableError(
                f"symbol {j} of node {failed} has no surviving replica")
        candidates.append(donors)
    matched = maximum_matching(candidates)
    # an unmatched symbol only has already-used donors (else the matching
    # would extend), so falling back to the smallest keeps reuse minimal
    assignment = [m if m is not None else min(c)
                  for m, c in zip(matched, candidates)]
    transfers = tuple(zip(lost, assignment))
    per_donor: dict[int, int] = {}
    for _, donor in transfers:
        per_donor[donor] = per_donor.get(donor, 0) + 1
    return RepairPlan(failed=failed, transfers=transfers,
                      d=len(per_donor), beta=max(per_donor.values()))


def execute_repair(system: StoredSystem, plan: RepairPlan) -> StoredSystem:
    """Rebuild the failed node's file from donor values; write it only once
    its bytes match the manifest checksum."""
    donor_maps, contents = {}, {}
    for symbol, donor in plan.transfers:
        if donor not in donor_maps:
            donor_maps[donor] = _read_node(system, donor)
        if donor_maps[donor] is None:
            raise IrreparableError(f"donor file {system.node_path(donor)} is unreadable")
        if symbol not in donor_maps[donor]:
            raise CorruptionError(f"{system.node_path(donor)} does not hold symbol {symbol}")
        contents[symbol] = donor_maps[donor][symbol]
    path = system.node_path(plan.failed)
    data = _node_text(plan.failed, contents, system.code.alpha).encode("ascii")
    if hashlib.sha256(data).hexdigest() != system.checksums[path.name]:
        raise CorruptionError(
            f"repaired {path} does not match its manifest checksum; "
            f"a donor was corrupt or the plan was stale")
    _write_atomic(path, data)
    return system
