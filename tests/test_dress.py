import hashlib
import json
import random
import re
import shutil
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from conftest import brute_repair_d_beta, reference_read_node, reference_repair_transfers

from frepkit import (
    GF,
    BudgetExceededError,
    CorruptionError,
    FrCode,
    FrepkitError,
    IrreparableError,
    ParameterError,
    StoredSystem,
    dress,
    execute_repair,
    file_size,
    from_design,
    from_graph,
    load_system,
    plan_repair,
    projective_plane,
    reconstruct,
    store,
    transversal_design,
    turan,
    verify_integrity,
)
from frepkit.construct import cage
from frepkit.dress import file_digest


def random_file(m_size, q, seed):
    rng = random.Random(seed)
    return [rng.randrange(q) for _ in range(m_size)]


@pytest.fixture
def td34_system(tmp_path):
    code = from_design(transversal_design(3, 4))
    file_symbols = random_file(11, 16, seed=42)
    system = store(code, 4, file_symbols, tmp_path / "sys")
    return system, file_symbols


EXPECTED_NAMES = {"manifest.json"} | {f"node_{i}.dat" for i in range(1, 13)}


def stored_names(root):
    return {path.name for path in root.iterdir()}


class TestStore:
    def test_td34_layout(self, td34_system, tmp_path):
        system, _ = td34_system
        root = system.root
        assert (root / "manifest.json").exists()
        node_files = sorted(root.glob("node_*.dat"))
        assert len(node_files) == 12
        for path in node_files:
            lines = path.read_text().splitlines()
            assert len(lines) == 1 + 4  # header plus alpha symbol lines
        assert system.mds.field.q == 16
        assert system.mds.dimension == 11

    def test_k33_over_gf16(self, tmp_path):
        code = from_graph(turan(6, 2))
        file_symbols = random_file(7, 16, seed=5)
        system = store(code, 3, file_symbols, tmp_path / "sys", field=GF(16))
        assert system.mds.dimension == 7
        assert reconstruct(system, [1, 2, 3]) == file_symbols

    def test_triangle_smallest(self, tmp_path):
        code = from_graph(turan(3, 3))
        system = store(code, 2, [1, 2, 3], tmp_path / "sys")
        for i in range(1, 4):
            header, *rows = system.node_path(i).read_text().splitlines()
            assert header == f"{i} 2"
            assert len(rows) == 2

    def test_wrong_file_length_rejected(self, tmp_path):
        code = from_graph(turan(3, 3))
        with pytest.raises(ParameterError, match="differs from M"):
            store(code, 2, [1, 2], tmp_path / "sys")

    def test_k_beyond_alpha_rejected(self, tmp_path):
        code = from_graph(turan(3, 3))
        with pytest.raises(ParameterError, match="exceeds alpha"):
            store(code, 3, [1, 2, 3], tmp_path / "sys")

    @pytest.mark.parametrize("k,message", [
        ("3", "k '3' is not an integer"), (None, "k None is not an integer"),
        (2.0, "k 2.0 is not an integer"), (True, "k True is not an integer"),
        (0, "k must be positive, got 0"), (-1, "k must be positive, got -1"),
    ], ids=["str", "None", "float", "bool", "zero", "negative"])
    def test_bad_k_rejected(self, tmp_path, k, message):
        code = from_graph(turan(3, 3))
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            store(code, k, [1, 2, 3], tmp_path / "sys")
        assert not (tmp_path / "sys").exists()

    def test_invalid_code_rejected(self, tmp_path):
        bad = FrCode(2, 3, 2, 2, [(1, 2), (2, 3)])
        with pytest.raises(ParameterError, match="invalid"):
            store(bad, 1, [0, 0], tmp_path / "sys")

    def test_budget_refuses_before_anything_is_written(self, tmp_path):
        # TD(6,7)'s k = 7 search opens 8,439 nodes; set-up settles TD(3,4)
        # and Petersen at any budget, for every k <= alpha
        code = from_design(transversal_design(6, 7))
        with pytest.raises(BudgetExceededError):
            store(code, 7, random_file(30, 16, seed=42), tmp_path / "sys", budget=3)
        assert not (tmp_path / "sys").exists()
        system = store(code, 7, random_file(30, 16, seed=42), tmp_path / "sys", budget=10**6)
        assert system.mds.dimension == 30

    def test_store_is_byte_deterministic(self, tmp_path):
        code = from_design(transversal_design(3, 4))
        file_symbols = random_file(11, 16, seed=42)
        a = store(code, 4, file_symbols, tmp_path / "a", seed=42)
        b = store(code, 4, file_symbols, tmp_path / "b", seed=42)
        assert (a.root / "manifest.json").read_bytes() == (b.root / "manifest.json").read_bytes()
        for i in range(1, 13):
            assert a.node_path(i).read_bytes() == b.node_path(i).read_bytes()


class TestReconstruct:
    def test_sampled_node_subsets(self, td34_system):
        system, file_symbols = td34_system
        for subset in [(1, 2, 3, 4), (1, 5, 9, 12), (2, 6, 7, 11), (9, 10, 11, 12)]:
            assert reconstruct(system, subset) == file_symbols

    def test_one_full_side_of_k33(self, tmp_path):
        code = from_graph(turan(6, 2))
        file_symbols = random_file(7, 16, seed=9)
        system = store(code, 3, file_symbols, tmp_path / "sys")
        # one complete part covers all 9 edges, well above M = 7
        assert reconstruct(system, [1, 2, 3]) == file_symbols

    def test_wrong_subset_size_refused(self, td34_system):
        system, _ = td34_system
        with pytest.raises(ParameterError, match="exactly k"):
            reconstruct(system, [1, 2, 3])
        with pytest.raises(ParameterError, match="exactly k"):
            reconstruct(system, [1, 2, 3, 4, 5])
        with pytest.raises(ParameterError):
            reconstruct(system, [1, 1, 2, 3])

    @pytest.mark.parametrize("nodes", [[1.5, 2, 3, 4], [True, 2, 3, 4], [1.0, 2, 3, 4],
                                       ["1", 2, 3, 4]],
                             ids=["float", "bool", "integral-float", "str"])
    def test_non_integer_node_refused(self, td34_system, nodes):
        system, _ = td34_system
        with pytest.raises(ParameterError, match="^node id .* is not an integer$"):
            reconstruct(system, nodes)

    @pytest.mark.parametrize("nodes,bad", [([0, 2, 3, 4], 0), ([1, 2, 3, 13], 13)],
                             ids=["zero", "beyond-n"])
    def test_node_out_of_range_refused(self, td34_system, nodes, bad):
        system, _ = td34_system
        with pytest.raises(ParameterError, match=f"^node id {bad} out of range 1..12$"):
            reconstruct(system, nodes)

    def test_nodes_holding_fewer_than_m_coordinates_are_refused(self, td34_system):
        # a manifest claiming M = 16 = theta: one node from each group and a
        # fourth hold fewer than 16 distinct coordinates
        system, _ = td34_system
        path = system.root / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["M"] = 16
        path.write_text(json.dumps(manifest))
        held = set().union(*(system.code.node_sets[i - 1] for i in (1, 2, 5, 9)))
        assert len(held) == 12
        with pytest.raises(FrepkitError, match=r"^nodes \[1, 2, 5, 9\] jointly hold 12 "
                           r"coordinates, fewer than M = 16: "):
            reconstruct(load_system(system.root), [1, 5, 9, 2])

    def test_nodes_may_be_a_generator(self, td34_system):
        system, file_symbols = td34_system
        assert reconstruct(system, iter([1, 5, 9, 12])) == file_symbols
        assert reconstruct(system, (i for i in (3, 6, 9, 12))) == file_symbols

    def test_reload_from_disk(self, td34_system):
        system, file_symbols = td34_system
        reloaded = load_system(system.root)
        assert reloaded.code == system.code
        assert reconstruct(reloaded, [3, 6, 9, 12]) == file_symbols

    def test_unreadable_node_reported(self, td34_system):
        system, _ = td34_system
        system.node_path(2).unlink()
        with pytest.raises(Exception, match="missing"):
            reconstruct(system, [1, 2, 3, 4])

    def test_tampered_single_replica_is_refused(self, td34_system):
        # nodes 1, 2, 5, 10 cover exactly M = 11 symbols and only node 1
        # holds symbol 2, so decoding alone cannot see the change
        system, _ = td34_system
        path = system.node_path(1)
        lines = path.read_text().splitlines()
        j, v = lines[2].split()
        assert j == "2"
        lines[2] = f"2 {(int(v) + 1) % 16}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptionError, match="node_1.dat checksum mismatch"):
            reconstruct(system, [1, 2, 5, 10])

    def test_edited_file_digest_is_refused(self, td34_system):
        system, _ = td34_system
        path = system.root / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["file_sha256"] = "0" * 64
        path.write_text(json.dumps(manifest))
        with pytest.raises(CorruptionError, match="stored digest"):
            reconstruct(load_system(system.root), [1, 2, 3, 4])

    def test_only_the_chosen_nodes_are_read(self, td34_system):
        system, file_symbols = td34_system
        system.node_path(3).write_bytes(b"\xff garbled")
        reloaded = load_system(system.root)
        assert reconstruct(reloaded, [1, 2, 5, 10]) == file_symbols

    def test_every_coordinate_covered_rho_times(self, td34_system):
        system, _ = td34_system
        coverage = {j: [] for j in range(1, 17)}
        for i in range(1, 13):
            for line in system.node_path(i).read_text().splitlines()[1:]:
                j, value = map(int, line.split())
                coverage[j].append(value)
        for j, values in coverage.items():
            assert len(values) == 3  # rho replicas
            assert len(set(values)) == 1  # all consistent


class TestPlanRepair:
    @pytest.mark.parametrize("failed,dead", [(1.5, ()), (True, ()), (1.0, ()), (1, [2.5]),
                                             (1, [False])],
                             ids=["float", "bool", "integral-float", "dead-float", "dead-bool"])
    def test_non_integer_node_refused(self, td34_system, failed, dead):
        system, _ = td34_system
        with pytest.raises(ParameterError, match="^node id .* is not an integer$"):
            plan_repair(system, failed, dead=dead)

    def test_paper_td34_donor_pools(self, paper_td34, tmp_path):
        # node 1 stores blocks 1..4 = {1,5,9}, {1,6,10}, {1,7,11}, {1,8,12}
        code = from_design(paper_td34)
        system = store(code, 4, random_file(11, 16, seed=1), tmp_path / "sys")
        plan = plan_repair(system, 1, policy="spread")
        pools = {1: {5, 9}, 2: {6, 10}, 3: {7, 11}, 4: {8, 12}}
        for symbol, donor in plan.transfers:
            assert donor in pools[symbol]
        assert plan.d == 4
        assert plan.beta == 1

    def test_lowest_policy_is_deterministic_minimum(self, paper_td34, tmp_path):
        code = from_design(paper_td34)
        system = store(code, 4, random_file(11, 16, seed=1), tmp_path / "sys")
        plan = plan_repair(system, 1, policy="lowest")
        assert [donor for _, donor in plan.transfers] == [5, 6, 7, 8]

    def test_rho2_donors_are_forced(self, tmp_path):
        code = from_graph(turan(6, 2))
        system = store(code, 3, random_file(7, 16, seed=2), tmp_path / "sys")
        for failed in range(1, 7):
            plan = plan_repair(system, failed)
            for symbol, donor in plan.transfers:
                holders = set(code.nodes_of_symbol[symbol - 1])
                assert holders == {failed, donor}

    def test_bandwidth_is_alpha_with_unit_beta(self, td34_system):
        system, _ = td34_system
        for failed in range(1, 13):
            plan = plan_repair(system, failed, policy="spread")
            assert plan.bandwidth == 4
            assert plan.beta == 1

    def test_double_failure_is_irreparable(self, tmp_path):
        code = from_graph(turan(6, 2))
        system = store(code, 3, random_file(7, 16, seed=3), tmp_path / "sys")
        # symbol 1 is edge (1, 4); with node 4 also dead it has no replica
        with pytest.raises(IrreparableError):
            plan_repair(system, 1, dead=[4])
        with pytest.raises(IrreparableError):  # an iterator is read once
            plan_repair(system, 1, dead=iter([4]))

    def test_lowest_policy_avoids_reuse_when_possible(self, tmp_path):
        # every node stores both symbols, so naive lowest-id picks collide on
        # node 2; a distinct-donor system exists and must be used instead
        code = FrCode(3, 2, 2, 3, [(1, 2), (1, 2), (1, 2)])
        system = store(code, 1, [0, 1], tmp_path / "sys")
        plan = plan_repair(system, 1, policy="lowest")
        assert plan.d == 2
        assert plan.beta == 1

    def test_forced_reuse_is_reported(self, tmp_path):
        code = FrCode(4, 4, 2, 2, [(1, 2), (1, 2), (3, 4), (3, 4)])
        system = store(from_graph(turan(3, 3)), 2, [1, 2, 3], tmp_path / "sys")
        system.code = code
        plan = plan_repair(system, 1)
        assert [donor for _, donor in plan.transfers] == [2, 2]
        assert plan.d == 1
        assert plan.beta == 2

    def test_rho1_code_is_irreparable(self, tmp_path):
        code = FrCode(2, 4, 2, 1, [(1, 2), (3, 4)])
        system_dir = tmp_path / "sys"
        # bypass store()'s validity gate by writing through a valid twin first
        system = store(from_graph(turan(3, 3)), 2, [1, 2, 3], system_dir)
        system.code = code
        with pytest.raises(IrreparableError):
            plan_repair(system, 1)

    def test_both_policies_give_the_same_plan(self, td34_system):
        # the matching takes the smallest donors whenever they are distinct
        system, _ = td34_system
        rng = random.Random(12)
        for code in (from_graph(turan(6, 2)), from_graph(cage("petersen")),
                     from_design(transversal_design(3, 4)), from_design(projective_plane(3))):
            system.code = code
            for failed in range(1, code.n + 1):
                others = [i for i in range(1, code.n + 1) if i != failed]
                for dead in ((), *(rng.sample(others, rng.randrange(1, 3)) for _ in range(4))):
                    plans = []
                    for policy in ("lowest", "spread"):
                        try:
                            plans.append(plan_repair(system, failed, policy=policy, dead=dead))
                        except IrreparableError as exc:
                            plans.append(str(exc))
                    assert plans[0] == plans[1], (code.n, failed, dead)

    def test_reuse_is_spread_evenly(self, td34_system):
        # five lost symbols, each held only by nodes 2 and 3: falling back to
        # the smallest donor would load node 2 four times, where 3 is the least
        system, _ = td34_system
        system.code = FrCode(3, 5, 5, 3, [range(1, 6)] * 3)
        plan = plan_repair(system, 1)
        assert [donor for _, donor in plan.transfers] == [2, 3, 2, 3, 2]
        assert (plan.d, plan.beta) == (2, 3)

    def test_d_largest_and_beta_least_against_brute_force(self, td34_system):
        system, _ = td34_system
        rng = random.Random(2718)
        irreparable = improved = 0
        for _ in range(2500):
            n, lost = rng.randrange(2, 8), rng.randrange(1, 6)
            # node 1 fails and holds symbols 1..lost; each has 1..3 other holders
            node_sets = [list(range(1, lost + 1))] + [[] for _ in range(n - 1)]
            for j in range(1, lost + 1):
                for i in rng.sample(range(2, n + 1), rng.randrange(1, min(3, n - 1) + 1)):
                    node_sets[i - 1].append(j)
            code = FrCode(n, lost, lost, 1, node_sets)
            system.code = code
            dead = rng.sample(range(2, n + 1), rng.choice((0, 0, 1, 2)) % (n - 1))
            donor_lists = [[i for i in code.nodes_of_symbol[j - 1] if i != 1 and i not in dead]
                           for j in range(1, lost + 1)]
            if not all(donor_lists):
                irreparable += 1
                with pytest.raises(IrreparableError):
                    plan_repair(system, 1, dead=dead)
                continue
            plan = plan_repair(system, 1, dead=dead)
            assert [j for j, _ in plan.transfers] == list(range(1, lost + 1))
            assert all(donor in donors for (_, donor), donors in zip(plan.transfers, donor_lists))
            assert (plan.d, plan.beta) == brute_repair_d_beta(donor_lists), (node_sets, dead)
            loads = Counter(donor for _, donor in reference_repair_transfers(code, 1, dead))
            improved += max(loads.values()) > plan.beta
        # the sweep reaches irreparable symbols and plans the old fallback overloaded
        assert irreparable >= 100 and improved >= 20

    def test_catalog_plans_equal_the_reference_kuhn_plans(self, td34_system):
        # on these codes no two lost symbols share a donor (rho = 2, or
        # lambda = 1), so the greedy pass takes the smallest donors as Kuhn did
        system, _ = td34_system
        codes = [from_graph(turan(6, 2)),
                 *(from_graph(cage(name)) for name in ("petersen", "heawood", "mcgee", "tuttecoxeter")),
                 *(from_design(transversal_design(*p)) for p in ((3, 4), (3, 5), (4, 5), (5, 7))),
                 *(from_design(projective_plane(q)) for q in (2, 3, 5))]
        for code in codes:
            system.code = code
            for failed in range(1, code.n + 1):
                for dead in ((), *((i,) for i in range(1, code.n + 1) if i != failed)):
                    reference = reference_repair_transfers(code, failed, dead)
                    if reference is None:
                        with pytest.raises(IrreparableError):
                            plan_repair(system, failed, dead=dead)
                    else:
                        assert plan_repair(system, failed, dead=dead).transfers == reference

    def test_unknown_policy_rejected(self, td34_system):
        system, _ = td34_system
        with pytest.raises(ParameterError, match="policy"):
            plan_repair(system, 1, policy="random")

    def test_chain_code_with_an_augmenting_path_through_every_donor(self, tmp_path):
        # node 1 stores symbols 1..m; symbol j < m also sits on nodes j + 1 and
        # j + 2, symbol m on node 2: the greedy pass gives symbol j node j + 1
        # and leaves m, whose augmenting path runs through all m + 1 donors
        m = 1201
        holders = [(1, j + 1, j + 2) for j in range(1, m)] + [(1, 2)]
        node_sets = [[j for j, h in enumerate(holders, 1) if i in h] for i in range(1, m + 2)]
        code = FrCode(m + 1, m, m, 3, node_sets)
        system = StoredSystem(code=code, mds=None, k=1, root=tmp_path, file_sha256="",
                              checksums={})  # plan_repair reads only the code
        plan = plan_repair(system, 1)
        assert (plan.d, plan.beta) == (m, 1)
        assert plan.transfers == (*((j, j + 2) for j in range(1, m)), (m, 2))


class TestExecuteRepair:
    def test_every_node_restores_byte_identical(self, td34_system):
        system, _ = td34_system
        for failed in range(1, 13):
            path = system.node_path(failed)
            original = path.read_bytes()
            path.unlink()
            plan = plan_repair(system, failed, policy="spread")
            execute_repair(system, plan)
            assert path.read_bytes() == original

    def test_repair_then_reconstruct_including_newcomer(self, td34_system):
        system, file_symbols = td34_system
        system.node_path(7).unlink()
        plan = plan_repair(system, 7)
        execute_repair(system, plan)
        assert reconstruct(system, [5, 6, 7, 8]) == file_symbols

    def test_corrupt_donor_detected(self, td34_system):
        system, _ = td34_system
        plan = plan_repair(system, 1, policy="lowest")
        donor = plan.transfers[0][1]
        donor_path = system.node_path(donor)
        text = donor_path.read_text().splitlines()
        first_symbol = plan.transfers[0][0]
        rewritten = []
        for line in text:
            j, v = line.split()
            if j == str(first_symbol):
                line = f"{j} {(int(v) + 1) % 16}"
            rewritten.append(line)
        donor_path.write_text("\n".join(rewritten) + "\n")
        system.node_path(1).unlink()
        with pytest.raises(CorruptionError):
            execute_repair(system, plan)
        # the checksum is checked before anything is written
        assert not system.node_path(1).exists()
        assert stored_names(system.root) == EXPECTED_NAMES - {"node_1.dat"}

    def test_rendered_file_is_checked_before_writing(self, td34_system):
        # intact donors, but the manifest lists another checksum for node 1
        system, _ = td34_system
        system.node_path(1).unlink()
        system.checksums["node_1.dat"] = "0" * 64
        with pytest.raises(CorruptionError, match="repaired .*node_1.dat does not match"):
            execute_repair(system, plan_repair(system, 1))
        assert stored_names(system.root) == EXPECTED_NAMES - {"node_1.dat"}

    def test_garbled_node_outside_the_plan_is_not_read(self, td34_system):
        system, _ = td34_system
        original = system.node_path(1).read_bytes()
        system.node_path(3).write_bytes(b"\xff garbled")
        system.node_path(1).unlink()
        plan = plan_repair(system, 1, policy="lowest")
        assert all(donor != 3 for _, donor in plan.transfers)
        execute_repair(load_system(system.root), plan)
        assert system.node_path(1).read_bytes() == original

    def test_no_temp_file_left_after_store_or_repair(self, td34_system):
        system, _ = td34_system
        assert stored_names(system.root) == EXPECTED_NAMES
        system.node_path(6).unlink()
        execute_repair(system, plan_repair(system, 6))
        assert stored_names(system.root) == EXPECTED_NAMES


# Damaged node files, each with where its error must point: a non-integer
# field, a wrong field count, a bad header, non-ASCII bytes, no lines at all.
GARBLED_NODE_FILES = {
    "non-integer": (b"5 4\n2 x\n", "node_5.dat:2"),
    "three-fields": (b"5 4\n2 3\n6 7 8\n", "node_5.dat:3"),
    "bad-header": (b"five\n2 3\n", "node_5.dat:1"),
    "non-ascii": (b"5 4\n2 \xff\n", "node_5.dat:2"),
    "empty": (b"", "node_5.dat: empty"),
}


class TestCorruptNodeFile:
    @pytest.mark.parametrize("data,where", GARBLED_NODE_FILES.values(),
                             ids=GARBLED_NODE_FILES.keys())
    def test_every_reader_raises_corruption_naming_the_line(self, td34_system, data, where):
        system, _ = td34_system
        system.node_path(5).write_bytes(data)
        with pytest.raises(CorruptionError, match=where):
            reconstruct(system, [5, 6, 7, 8])
        with pytest.raises(CorruptionError, match=where):
            verify_integrity(system.root)
        # node 1 holds symbols 1..4; node 5 donates symbol 1 under "lowest"
        system.node_path(1).unlink()
        plan = plan_repair(system, 1, policy="lowest")
        assert (1, 5) in plan.transfers
        with pytest.raises(CorruptionError, match=where):
            execute_repair(system, plan)
        assert not system.node_path(1).exists()

    def test_donor_without_the_symbol(self, td34_system):
        # the file matches its checksum, so only the symbol lookup can object
        system, _ = td34_system
        system.node_path(5).write_bytes(b"5 4\n")
        system.checksums["node_5.dat"] = hashlib.sha256(b"5 4\n").hexdigest()
        system.node_path(1).unlink()
        with pytest.raises(CorruptionError, match="does not hold symbol 1"):
            execute_repair(system, plan_repair(system, 1, policy="lowest"))


def _splice(rng, data: bytes, pattern: bytes, cut: int, insert: bytes) -> bytes:
    """data with the cut bytes at a random match of pattern replaced by
    insert; data itself when pattern never matches."""
    starts = [m.start() for m in re.finditer(pattern, data)]
    if not starts:
        return data
    at = rng.choice(starts)
    return data[:at] + insert + data[at + cut:]


def _flip(rng, data: bytes) -> bytes:
    if not data:
        return data
    at = rng.randrange(len(data))
    return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1:]


# Damage to a node file, from its bytes and those of another node of the system.
NODE_MUTATIONS = {
    "byte-flip": lambda rng, data, other: _flip(rng, data),
    "drop-newline": lambda rng, data, other: _splice(rng, data, rb"\n", 1, b""),
    "double-newline": lambda rng, data, other: _splice(rng, data, rb"\n", 0, b"\n"),
    "drop-space": lambda rng, data, other: _splice(rng, data, rb" ", 1, b""),
    "double-space": lambda rng, data, other: _splice(rng, data, rb" ", 0, b" "),
    "tab": lambda rng, data, other: _splice(rng, data, rb" ", 1, b"\t"),
    "crlf": lambda rng, data, other: _splice(rng, data, rb"\n", 1, b"\r\n"),
    "leading-zero": lambda rng, data, other: _splice(rng, data, rb"\b[0-9]", 0, b"0"),
    "sign": lambda rng, data, other: _splice(rng, data, rb"\b[0-9]", 0,
                                             rng.choice([b"+", b"-"])),
    "third-token": lambda rng, data, other: _splice(rng, data, rb"\n", 0,
                                                    b" %d" % rng.randrange(100)),
    "swapped": lambda rng, data, other: other,
    "truncated": lambda rng, data, other: data[:rng.randrange(len(data))],
    "empty": lambda rng, data, other: b"",
}


def read_outcome(read, system, i):
    """What a node reader gives: its map, or the message of its CorruptionError;
    any other exception propagates."""
    try:
        return read(system, i)
    except CorruptionError as exc:
        return f"CorruptionError: {exc}"


def spy_on_line_parser(monkeypatch) -> list[int]:
    """The node ids that dress._parse_node is called on from now on."""
    calls, parse = [], dress._parse_node

    def spy(system, i, *rest):
        calls.append(i)
        return parse(system, i, *rest)

    monkeypatch.setattr(dress, "_parse_node", spy)
    return calls


class TestNodeReader:
    @pytest.mark.parametrize("ell,h,k", [(3, 4, 4), (5, 7, 3)], ids=["td34", "td57"])
    def test_damaged_files_read_as_the_reference_reads_them(self, tmp_path, ell, h, k):
        # each mutation is read under the stored checksum and under one
        # recomputed for the mutated bytes, which lets it reach the fast path
        system = store(from_design(transversal_design(ell, h)), k, None, tmp_path / "sys")
        n = system.code.n
        originals = {i: system.node_path(i).read_bytes() for i in range(1, n + 1)}
        stored = dict(system.checksums)
        rng = random.Random(ell * 100 + h)
        kinds = list(NODE_MUTATIONS.items())
        accepted = refused = 0  # damaged files taken, and refused
        for trial in range(520):
            kind, mutate = kinds[trial % len(kinds)]
            i = rng.randrange(1, n + 1)
            other = originals[i % n + 1]
            data = mutate(rng, originals[i], other)
            name = f"node_{i}.dat"
            system.node_path(i).write_bytes(data)
            for checksum in (stored[name], hashlib.sha256(data).hexdigest()):
                system.checksums[name] = checksum
                want = read_outcome(reference_read_node, system, i)
                assert read_outcome(dress._read_node, system, i) == want, (kind, data)
                refused += isinstance(want, str)
                accepted += not isinstance(want, str) and data != originals[i]
            system.node_path(i).write_bytes(originals[i])
            system.checksums[name] = stored[name]
        assert accepted and refused, (accepted, refused)

    def test_a_directory_in_place_of_a_node_file_is_named(self, td34_system):
        system, _ = td34_system
        system.node_path(5).unlink()
        system.node_path(5).mkdir()
        with pytest.raises(IsADirectoryError) as want:
            reference_read_node(system, 5)
        with pytest.raises(IsADirectoryError) as got:
            dress._read_node(system, 5)
        assert str(got.value) == str(want.value) and str(system.node_path(5)) in str(got.value)

    def test_an_intact_system_never_reaches_the_line_parser(self, td34_system, monkeypatch):
        system, file_symbols = td34_system
        calls = spy_on_line_parser(monkeypatch)
        assert reconstruct(system, [1, 5, 9, 12]) == file_symbols
        system.node_path(7).unlink()
        execute_repair(system, plan_repair(system, 7))
        verify_integrity(system.root)
        assert calls == []

    def test_a_forged_tab_separated_file_is_read_by_the_line_parser(self, td34_system,
                                                                    monkeypatch):
        system, _ = td34_system
        path = system.node_path(5)
        data = path.read_bytes().replace(b" ", b"\t")
        path.write_bytes(data)
        system.checksums[path.name] = hashlib.sha256(data).hexdigest()
        calls = spy_on_line_parser(monkeypatch)
        got = dress._read_node(system, 5)
        assert calls == [5]
        assert got == reference_read_node(system, 5)
        assert sorted(got) == list(system.code.node_sets[4])


# Edits of the manifest text: broken JSON, a missing key, a wrong type.
CORRUPT_MANIFESTS = {
    "truncated": lambda text: text[: len(text) // 2],
    "empty": lambda text: "",
    "non-ascii": lambda text: text.replace('"schema"', '"sch\u00e9ma"'),
    "not-an-object": lambda text: "[1, 2, 3]",
    "missing-code": lambda text: text.replace('"code"', '"kode"'),
    "missing-checksums": lambda text: text.replace('"checksums"', '"checksum"'),
    "missing-file-digest": lambda text: text.replace('"file_sha256"', '"file_sha"'),
    "missing-node-checksum": lambda text: text.replace('"node_12.dat"', '"node_13.dat"'),
    "code-is-a-list": lambda text: text.replace('"code": {', '"code": [12], "x": {'),
    "n-is-a-string": lambda text: text.replace('"n": 12', '"n": "12"'),
    "field-is-a-number": lambda text: text.replace('"field": {', '"field": 16, "x": {'),
    "checksums-is-a-list": lambda text: text.replace('"checksums": {', '"checksums": [], "x": {'),
    "repeated-symbol": lambda text: text.replace('[\n        1,\n        2,', '[\n        1,\n        1,'),
}


class TestCorruptManifest:
    @pytest.mark.parametrize("edit", CORRUPT_MANIFESTS.values(), ids=CORRUPT_MANIFESTS.keys())
    def test_load_raises_corruption(self, td34_system, edit):
        system, _ = td34_system
        path = system.root / "manifest.json"
        text = path.read_text()
        assert edit(text) != text
        path.write_bytes(edit(text).encode("utf-8"))
        with pytest.raises(CorruptionError, match="manifest"):
            load_system(system.root)


class TestIntegrity:
    def test_manifest_detects_single_byte_mutation(self, td34_system):
        system, _ = td34_system
        verify_integrity(system.root)
        path = system.node_path(5)
        data = bytearray(path.read_bytes())
        data[-2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError, match="checksum"):
            verify_integrity(system.root)

    def test_leftover_temporary_file_is_named(self, tmp_path):
        root = tmp_path / "sys"
        shutil.copytree(SYSTEM_V1, root)
        (root / "node_3.dat.tmp").write_bytes((root / "node_3.dat").read_bytes()[:7])
        with pytest.raises(CorruptionError, match=r"node_3\.dat\.tmp .*interrupted write"):
            verify_integrity(root)

    def test_manifest_contents(self, td34_system):
        system, file_symbols = td34_system
        manifest = json.loads((system.root / "manifest.json").read_text())
        assert manifest["schema"] == "frepkit-system/1"
        assert manifest["k"] == 4
        assert manifest["M"] == 11 == file_size(system.code, 4)
        assert manifest["field"]["q"] == 16
        assert len(manifest["checksums"]) == 12


class TestRoundTripSweep:
    def test_all_k_subsets_small_system(self, tmp_path):
        # exhaustive reconstruction identity on the triangle code over GF(4)
        code = from_graph(turan(3, 3))
        file_symbols = [3, 1, 2]
        system = store(code, 2, file_symbols, tmp_path / "sys")
        for subset in combinations(range(1, 4), 2):
            assert reconstruct(system, subset) == file_symbols

    def test_k_equals_n_trivially_reconstructs(self, tmp_path):
        # the one-node identity code allows k = n = alpha = 1
        code = FrCode(1, 1, 1, 1, [(1,)])
        system = store(code, 1, [1], tmp_path / "sys")
        assert reconstruct(system, [1]) == [1]


# A frepkit-system/1 store of TD(3,4) at k = 4, written by `frepkit store
# --seed 0` while MdsCode still took systematic/eval_points options.
SYSTEM_V1 = Path(__file__).parent / "data" / "td34_k4_seed0"


class TestStoredFormat:
    def test_checked_in_store_loads_and_reconstructs(self):
        verify_integrity(SYSTEM_V1)
        system = load_system(SYSTEM_V1)
        assert system.k == 4 and system.mds.dimension == 11 and system.seed == 0
        manifest = json.loads((SYSTEM_V1 / "manifest.json").read_text())
        assert system.file_sha256 == manifest["file_sha256"]
        assert system.checksums == manifest["checksums"]
        recovered = reconstruct(system, [1, 2, 3, 4])
        assert file_digest(recovered) == system.file_sha256
        for nodes in combinations(range(1, 13), 4):
            assert reconstruct(system, nodes) == recovered

    def test_store_rewrites_checked_in_store_byte_for_byte(self, tmp_path):
        old = load_system(SYSTEM_V1)
        recovered = reconstruct(old, [1, 2, 3, 4])
        new = store(old.code, 4, recovered, tmp_path / "sys", seed=0)
        assert new.file_sha256 == old.file_sha256
        assert new.checksums == old.checksums
        for path in SYSTEM_V1.iterdir():
            assert (new.root / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("seed", [{}, {"seed": 0}], ids=["no-seed", "seed-0"])
    def test_drawn_file_rewrites_checked_in_store_byte_for_byte(self, tmp_path, seed):
        code = from_design(transversal_design(3, 4))
        new = store(code, 4, None, tmp_path / "sys", **seed)
        assert new.seed == 0
        for path in SYSTEM_V1.iterdir():
            assert (new.root / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("mds", [
        {"systematic": False, "eval_points": list(range(16))},
        {"systematic": True, "eval_points": [1, 0] + list(range(2, 16))},
        {"systematic": True, "eval_points": list(range(1, 17))},
        None,
    ], ids=["non-systematic", "permuted-points", "shifted-points", "missing"])
    def test_foreign_outer_code_is_refused(self, tmp_path, mds):
        root = tmp_path / "sys"
        shutil.copytree(SYSTEM_V1, root)
        manifest = json.loads((root / "manifest.json").read_text())
        if mds is None:
            del manifest["mds"]
        else:
            manifest["mds"] = mds
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptionError, match="outer code"):
            load_system(root)

    def test_repair_checks_against_the_loaded_manifest(self, td34_system):
        system, _ = td34_system
        original = system.node_path(7).read_bytes()
        system.node_path(7).unlink()
        (system.root / "manifest.json").unlink()  # repair no longer rereads it
        execute_repair(system, plan_repair(system, 7))
        assert system.node_path(7).read_bytes() == original
