"""The DRESS storage pipeline: MDS-encode a file, spread the codeword over
nodes per an FR code, reconstruct from any k nodes, and repair failed nodes
by uncoded transfer.

On disk a stored system is a directory holding manifest.json plus one
node_<i>.dat per node.  A node file starts with "i alpha" and then lists
"j value" lines in ascending symbol order.  load_system reads only the
manifest.  An operation reads just the node files it uses (reconstruct its k
nodes, a repair its donors) and hashes each one before it parses it: a file
that matches the manifest's SHA-256 and store's layout is split into its
values at once, and only a file that fails that fast path goes through the
line parser, so that the fault is named.  reconstruct also checks the
decoded file against the manifest's file digest.  Repairs copy symbol values
from donors without field arithmetic and write the file only once its bytes
match the manifest checksum.  Every write goes to a temporary name and is
renamed into place, so readers never see a partly written file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
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
# the node-file layout _node_text writes: "a b" lines of ASCII decimals
_NODE_LAYOUT = re.compile(rb"(?:[0-9]+ [0-9]+\n)+")


def __getattr__(name: str):  # dress.file_size, read by the tracer's self-check
    if name == "file_size":
        from .analyze import file_size
        return file_size
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class StoredSystem:
    """A DRESS instance persisted under root; single-writer, multi-reader."""

    def __init__(self, code: FrCode, mds: MdsCode, k: int, root: Path, file_sha256: str,
                 checksums: dict[str, str], seed: int | None = None):
        self.code, self.mds, self.k = code, mds, k  # M and the field are mds's
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
    """Replace path by data in one rename: a process killed at any point
    leaves the old file or the new one whole.  Nothing calls fsync, so after
    a power loss the file system may keep the rename without the data.  A
    write or rename that raises removes the temporary file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def store(code: FrCode, k: int, file_symbols, root, field: GF | None = None,
          seed: int | None = None, budget: int | None = None) -> StoredSystem:
    """Encode file_symbols and persist the system under root.

    The file must have exactly M = file_size(code, k, budget) symbols and k
    must stay within the reconstruction range k <= alpha.  With
    file_symbols None the file is M field elements drawn by
    random.Random(seed), seed 0 when seed is None, and the manifest records
    that seed.  A root that already holds a manifest is refused: rewriting a
    system in place would leave neither file recoverable if the store were
    cut off midway, and so is a root that is, or lies under, a file.  Every
    refusal of the code, k, field or root comes before the search for M.
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
    built_on = next(p for p in (root, *root.parents) if p.exists())  # what mkdir builds on
    if not built_on.is_dir():
        raise ParameterError(f"{built_on} is not a directory; store into a new root")
    field = field if field is not None else default_field_for(code.theta)
    if code.theta > field.q:  # MdsCode's own check, made here before the search
        raise ParameterError(f"length {code.theta} exceeds field order {field.q}")
    m_size = file_size(code, k, budget=budget)
    if file_symbols is None:
        import random  # here, so that reading a system loads no random
        seed = 0 if seed is None else seed
        rng = random.Random(seed)
        file_symbols = [rng.randrange(field.q) for _ in range(m_size)]
    file_symbols = list(file_symbols)
    if len(file_symbols) != m_size:
        raise ParameterError(
            f"file length {len(file_symbols)} differs from M = {m_size} for k = {k}")
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
    return StoredSystem(code=code, mds=mds, k=k, root=root,
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
    return StoredSystem(code=code, mds=mds, k=k, root=root, file_sha256=file_sha256,
                        checksums=checksums, seed=manifest.get("seed"))


def _read_node(system: StoredSystem, i: int) -> dict[int, int] | None:
    """Node i's {symbol: value} map, or None when its file is missing; the
    one node-file reader.  A file that matches its checksum and store's layout
    is what store wrote, so one split parses it; _parse_node names the fault
    of any other."""
    data = b""
    try:
        fd = os.open(os.path.join(system.root, f"node_{i}.dat"), os.O_RDONLY)
        try:
            while chunk := os.read(fd, 1 << 16):
                data += chunk
        finally:
            os.close(fd)
    except FileNotFoundError:
        return None
    except OSError as exc:  # os.read names no file; name it as open() would
        exc.filename = str(system.node_path(i))
        raise
    digest = hashlib.sha256(data).hexdigest()
    if digest == system.checksums[f"node_{i}.dat"] and _NODE_LAYOUT.fullmatch(data):
        values = list(map(int, data.split()))
        if values[0] == i:
            return dict(zip(values[2::2], values[3::2]))
    return _parse_node(system, i, data, digest)


def _parse_node(system: StoredSystem, i: int, data: bytes, actual: str) -> dict[int, int]:
    """Node i's map from data, whose SHA-256 is actual, line by line: the
    first fault of a line, an empty file, the node id or the checksum raises
    CorruptionError, and a file with none (say, tab-separated) gives its map."""
    path = system.node_path(i)
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
    expected = system.checksums[path.name]
    if actual != expected:
        raise CorruptionError(f"{path} checksum mismatch: manifest {expected}, file {actual}")
    return dict(rows)


def verify_integrity(root) -> None:
    """Raise CorruptionError on a manifest or a present node file that is
    corrupt, or on a node_<i>.dat.tmp that an interrupted write left behind;
    missing node files are failed nodes and are skipped."""
    system = load_system(root)
    names = set(os.listdir(system.root))
    for i in range(1, system.code.n + 1):
        if f"node_{i}.dat.tmp" in names:
            raise CorruptionError(
                f"{system.node_path(i)}.tmp is left over from an interrupted write")
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
    if len(covered) < system.mds.dimension:
        raise FrepkitError(
            f"nodes {chosen} jointly hold {len(covered)} coordinates, fewer than "
            f"M = {system.mds.dimension}: the stored system violates its own contract")
    recovered = system.mds.decode(coords)
    if file_digest(recovered) != system.file_sha256:
        raise CorruptionError("recovered file does not match the stored digest")
    return recovered


def plan_repair(system: StoredSystem, failed: int, policy: str = "lowest",
                dead=()) -> RepairPlan:
    """Pick one donor per lost symbol among the surviving replicas.

    A maximum matching on the donor masks (holder_masks without the failed
    and dead nodes) assigns the donors, so d, the number of distinct donors,
    is the largest possible, and no donor serves two symbols whenever a
    system of distinct donors exists.  Otherwise every donor's capacity is
    raised to b = 2, 3, ... and the matching extended until each symbol is
    placed; extending never drops a donor, so d stays the largest and beta
    is the least possible.  The greedy pass scans each symbol's donors in
    ascending order, so it takes the smallest donors whenever they are
    distinct.  Both policies, "lowest" and "spread", name this one plan.
    Extra dead nodes model multi-failure and make symbols without survivors
    irreparable.
    """
    if policy not in REPAIR_POLICIES:
        raise ParameterError(f"unknown policy {policy!r}; choose from {REPAIR_POLICIES}")
    unavailable = 0
    for i in (failed, *dead):
        if type(i) is not int:
            _integer(i, "node id")
        if not 1 <= i <= system.code.n:
            raise ParameterError(f"node id {i} out of range 1..{system.code.n}")
        unavailable |= 1 << (i - 1)
    n, holders = system.code.n, system.code.holder_masks
    lost = system.code.node_sets[failed - 1]
    masks = []
    for j in lost:
        donors = holders[j - 1] & ~unavailable
        if not donors:
            raise IrreparableError(
                f"symbol {j} of node {failed} has no surviving replica")
        masks.append(donors)
    match = maximum_matching(masks)
    # capacity b is b copies of each donor's bit, copy c of node i at bit c*n + i - 1
    wide, copies = masks, 1
    while None in match:
        wide = [w | m << copies * n for w, m in zip(wide, masks)]
        copies += 1
        match = maximum_matching(wide, match)
    transfers = tuple((j, r % n + 1) for j, r in zip(lost, match))
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
