"""Seeded fault injection into a stored DRESS system.

Each case damages one file of a TD(3,4) store: one byte flipped, the file
truncated, or the file deleted.  Then the readers run on the damaged store.
Each must give exactly the undamaged result or raise a FrepkitError: no
other exception, and never a wrong file.  A failed repair leaves neither the
node file nor a temporary file behind.  Seeds are fixed; every run checks
the same cases.  The readers are chosen to touch the damaged node file:
the reconstruction includes it and the failed node shares a symbol with it.
A store or repair cut off at any one of its renames leaves the same choice:
the original file, or a FrepkitError; a write or rename that raises leaves
no temporary file.  Mutated .frc files of TD(3,4) and Petersen go through
load, validate, the capacity profile and the batch parameter; each step
returns or raises a FrepkitError.
"""

import json
import os
import random
import shutil
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from frepkit import (
    CorruptionError,
    FrepkitError,
    ParameterError,
    batch_t_detail,
    cage,
    capacity_profile,
    execute_repair,
    from_design,
    from_graph,
    load,
    load_system,
    plan_repair,
    reconstruct,
    save,
    store,
    transversal_design,
    validate,
    verify_integrity,
)
from frepkit.cli import main

CODE = from_design(transversal_design(3, 4))
DAMAGE = ["flip", "truncate", "delete"]
SEEDS_PER_CASE = 4
REFUSED = "refused"


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    rng = random.Random(4)
    file_symbols = [rng.randrange(16) for _ in range(11)]
    root = tmp_path_factory.mktemp("pristine") / "sys"
    store(CODE, 4, file_symbols, root)
    return root, file_symbols


def damage(path, how, rng):
    if how == "delete":
        path.unlink()
        return
    data = bytearray(path.read_bytes())
    if how == "flip":
        data[rng.randrange(len(data))] ^= rng.randrange(1, 256)
    else:
        del data[rng.randrange(len(data)):]
    path.write_bytes(bytes(data))


def outcome(call):
    try:
        return call()
    except FrepkitError:
        return REFUSED


def shares_a_symbol(a, b):
    return not set(CODE.node_sets[a - 1]).isdisjoint(CODE.node_sets[b - 1])


@pytest.mark.parametrize("how", DAMAGE)
@pytest.mark.parametrize("node", [None, *range(1, 13)],
                         ids=["manifest", *(f"node{i}" for i in range(1, 13))])
def test_damaged_store_gives_the_original_or_refuses(pristine, tmp_path, capsys, node, how):
    source, file_symbols = pristine
    name = "manifest.json" if node is None else f"node_{node}.dat"
    others = [i for i in range(1, 13) if i != node]
    for seed in range(SEEDS_PER_CASE):
        rng = random.Random(f"{name} {how} {seed}")
        root = tmp_path / str(seed)
        shutil.copytree(source, root)
        damage(root / name, how, rng)
        if node is None:
            readers = sorted(rng.sample(others, 4))
            failed = rng.choice(others)
        else:
            readers = sorted([node, *rng.sample(others, 3)])
            failed = rng.choice([i for i in others if shares_a_symbol(i, node)])

        got = outcome(lambda: reconstruct(load_system(root), readers))
        assert got in (file_symbols, REFUSED), (seed, readers)
        assert outcome(lambda: verify_integrity(root)) in (None, REFUSED), seed

        status = main(["reconstruct", "--root", str(root),
                       "--nodes", ",".join(map(str, readers))])
        out = capsys.readouterr().out
        if status == 0:
            assert out.splitlines()[0] == "file: " + " ".join(map(str, file_symbols))
        else:
            assert status == 1 and "file:" not in out, (seed, readers, out)

        repaired = root / f"node_{failed}.dat"
        repaired.unlink()
        policy = rng.choice(["lowest", "spread"])

        def repair():
            system = load_system(root)
            execute_repair(system, plan_repair(system, failed, policy=policy))
            return repaired.read_bytes()

        got = outcome(repair)
        assert got in ((source / repaired.name).read_bytes(), REFUSED), (seed, failed)
        if got == REFUSED:
            assert not repaired.exists(), (seed, failed)
        assert not list(root.glob("*.tmp")), seed


def interrupt_replace(monkeypatch, at):
    """os.replace raises at its call number `at`, counted from 0, as a crash
    at that rename would stop the writer; the earlier renames happen."""
    calls, replace = [], os.replace

    def interrupted(src, dst):
        calls.append(dst)
        if len(calls) == at + 1:
            raise OSError(f"interrupted at rename {at}")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", interrupted)
    return calls


STORE_RENAMES = CODE.n + 1  # the node files, then the manifest
READERS = list(combinations(range(1, CODE.n + 1), 4))[::23]


@pytest.mark.parametrize("at", range(STORE_RENAMES + 1))
def test_an_interrupted_store_loses_no_file(pristine, tmp_path, monkeypatch, at):
    # over a stored system store writes nothing; into a new root it leaves
    # no manifest until its last rename, so readers refuse until then
    source, old_file = pristine
    new_file = [(v + 1) % 16 for v in old_file]
    over, fresh = tmp_path / "over", tmp_path / "fresh"
    shutil.copytree(source, over)
    calls = interrupt_replace(monkeypatch, at)
    with pytest.raises(ParameterError, match="already holds a stored system"):
        store(CODE, 4, new_file, over)
    assert calls == []
    if at < STORE_RENAMES:
        with pytest.raises(OSError, match="interrupted"):
            store(CODE, 4, new_file, fresh)
    else:
        store(CODE, 4, new_file, fresh)
    monkeypatch.undo()
    assert len(calls) == min(at + 1, STORE_RENAMES)
    assert not [*over.glob("*.tmp"), *fresh.glob("*.tmp")]
    for readers in READERS:
        assert outcome(lambda: reconstruct(load_system(over), readers)) == old_file
        got = outcome(lambda: reconstruct(load_system(fresh), readers))
        assert got == (new_file if at == STORE_RENAMES else REFUSED), readers


@pytest.mark.parametrize("at", [0, 1])
def test_an_interrupted_repair_loses_no_file(pristine, tmp_path, monkeypatch, at):
    source, file_symbols = pristine
    root = tmp_path / "sys"
    shutil.copytree(source, root)
    (root / "node_5.dat").unlink()
    system = load_system(root)
    plan = plan_repair(system, 5)
    calls = interrupt_replace(monkeypatch, at)
    if at == 0:
        with pytest.raises(OSError, match="interrupted"):
            execute_repair(system, plan)
    else:
        execute_repair(system, plan)
    monkeypatch.undo()
    assert len(calls) == 1
    assert not list(root.glob("*.tmp"))
    for readers in READERS:
        got = outcome(lambda: reconstruct(load_system(root), readers))
        lost = at == 0 and 5 in readers
        assert got == (REFUSED if lost else file_symbols), readers


def test_a_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    # a full disk stops the first node file's write partway
    write = Path.write_bytes

    def full(path, data):
        write(path, data[:len(data) // 2])
        raise OSError("No space left on device")

    monkeypatch.setattr(Path, "write_bytes", full)
    with pytest.raises(OSError, match="No space"):
        store(CODE, 4, [0] * 11, tmp_path / "sys")
    monkeypatch.undo()
    assert list((tmp_path / "sys").iterdir()) == []


@pytest.mark.parametrize("block,key,value,message", [
    (None, "M", 11.0, "dimension 11.0 is not an integer"),
    ("field", "modulus", "abc", r"field spec \{.*'modulus': 'abc', .*\} is not GF\(16\)'s "),
    ("field", "modulus", 19.5, r"field spec \{.*'modulus': 19\.5, .*\} is not GF\(16\)'s "),
    (None, "k", "3", "k '3' is not an integer"),
    (None, "k", 2.5, "k 2.5 is not an integer"),
    (None, "k", True, "k True is not an integer"),
    (None, "k", 0, r"k = 0 is outside 1\.\.alpha = 4"),
    (None, "k", 99, r"k = 99 is outside 1\.\.alpha = 4"),
    ("code", "node_sets", [[1.5, *CODE.node_sets[0][1:]], *CODE.node_sets[1:]],
     "node 1 symbol 1.5 is not an integer"),
    ("code", "node_sets", [[True, *CODE.node_sets[0][1:]], *CODE.node_sets[1:]],
     "node 1 symbol True is not an integer"),
    ("code", "n", 12.0, "n 12.0 is not an integer"),
    ("code", "theta", True, "theta True is not an integer"),
    ("code", "alpha", 4.0, "alpha 4.0 is not an integer"),
    ("code", "rho", "3", "rho '3' is not an integer"),
], ids=["M-11.0", "modulus-abc", "modulus-19.5", "k-str3", "k-2.5", "k-true", "k-0", "k-99",
        "symbol-1.5", "symbol-true", "n-12.0", "theta-true", "alpha-4.0", "rho-str3"])
def test_non_integer_file_size_in_manifest_is_corruption(tmp_path, capsys, block, key, value,
                                                         message):
    def change(manifest):
        (manifest[block] if block else manifest)[key] = value

    refused_as_unreadable(tmp_path, capsys, change, message)


# x^4 + x^3 + 1 (25) is irreducible, so its field is a GF(16) too, but not the
# one the node files were encoded in.  A value equal to the right one but of
# another type (19.0, 2.0) is refused as well.
@pytest.mark.parametrize("change", [
    {"p": 3, "m": 9},
    {"modulus": 25},
    {"modulus": 19.0},
    {"p": 2.0},
    {"modulus": None},
], ids=["p3-m9", "modulus-25", "modulus-19.0", "p-2.0", "modulus-none"])
def test_a_field_block_other_than_the_built_in_one_is_corruption(tmp_path, capsys, change):
    refused_as_unreadable(tmp_path, capsys, lambda manifest: manifest["field"].update(change),
                          r"field spec \{.*\} is not GF\(16\)'s ")


def refused_as_unreadable(tmp_path, capsys, change, message):
    """The stored TD(3,4) system, its manifest edited by change(), refuses to
    load, and reconstruct and repair --plan-only exit 1 naming the manifest."""
    root = tmp_path / "sys"
    shutil.copytree(Path(__file__).parent / "data" / "td34_k4_seed0", root)
    manifest = json.loads((root / "manifest.json").read_text())
    change(manifest)
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorruptionError, match=message):
        load_system(root)
    for argv in (["reconstruct", "--root", str(root), "--nodes", "1,2,3,4"],
                 ["repair", "--root", str(root), "--failed", "1", "--plan-only"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "unreadable manifest" in captured.err


FRC_MUTATIONS = ["flip", "truncate", "digit", "space", "newline", "copy-line"]
FRC_MUTANTS = 1000
CLI_MUTANTS = 20  # the first mutants also run through `frepkit analyze`


def mutate_frc(data: bytes, how: str, rng: random.Random) -> bytes:
    if how == "copy-line":
        lines = data.split(b"\n")
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
        return b"\n".join(lines)
    pos = rng.randrange(len(data))
    if how == "flip":
        return data[:pos] + bytes([data[pos] ^ rng.randrange(1, 256)]) + data[pos + 1:]
    if how == "truncate":
        return data[:pos]
    inserted = {"digit": str(rng.randrange(10)), "space": " ", "newline": "\n"}[how]
    return data[:pos] + inserted.encode("ascii") + data[pos:]


def analyse_frc(path) -> str:
    """"valid" or "invalid", validate's verdict on a code analysed to the
    end, or the class name of the FrepkitError that refused path."""
    try:
        code = load(path)
        report = validate(code)
        capacity_profile(code, k_max=min(3, code.n), budget=10**5)
        batch_t_detail(code, budget=10**5)
    except FrepkitError as exc:
        return type(exc).__name__
    return "valid" if report.valid else "invalid"


def test_a_mutated_frc_file_is_analysed_or_refused(tmp_path, capsys):
    sources = {}
    for name, code in (("td34", CODE), ("petersen", from_graph(cage("petersen")))):
        save(code, tmp_path / f"{name}.frc")
        sources[name] = (tmp_path / f"{name}.frc").read_bytes()
    rng = random.Random(7)
    path = tmp_path / "mutant.frc"
    outcomes = Counter()
    for i in range(FRC_MUTANTS):
        name, how = rng.choice(sorted(sources)), rng.choice(FRC_MUTATIONS)
        data = mutate_frc(sources[name], how, rng)
        path.write_bytes(data)
        try:
            outcome = analyse_frc(path)
        except Exception as exc:
            pytest.fail(f"{how} mutant {i} of {name}, {data!r}, raised {exc!r}")
        outcomes[outcome] += 1
        if i < CLI_MUTANTS:
            # a header that lies about the code (say rho = 82) fails the
            # profile's cross-check, exit 2, as a lying header always does
            allowed = (0, 1, 2) if outcome == "invalid" else (0, 1)
            assert main(["analyze", str(path)]) in allowed, (i, data)
            capsys.readouterr()
    assert outcomes["valid"] and outcomes["invalid"] and outcomes["FormatError"], outcomes
