import hashlib
import json
import shutil
from itertools import combinations
from pathlib import Path

import pytest

from frepkit import BatchPlan, batch, load_system, plan_repair, verify_integrity
from frepkit.cli import main


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestConstruct:
    def test_turan(self, capsys, tmp_path):
        out_path = tmp_path / "k33.frc"
        status, out, _ = run(capsys, "construct", "turan", "--n", "6", "--r", "2",
                             "--out", str(out_path))
        assert status == 0
        assert "(6, 9, 3, 2)" in out
        assert out_path.read_text().splitlines()[0] == "FRC 6 9 3 2"

    def test_td(self, capsys, tmp_path):
        out_path = tmp_path / "td34.frc"
        status, out, _ = run(capsys, "construct", "td", "--rho", "3", "--alpha", "4",
                             "--out", str(out_path))
        assert status == 0
        assert "(12, 16, 4, 3)" in out

    def test_cage(self, capsys, tmp_path):
        out_path = tmp_path / "petersen.frc"
        status, out, _ = run(capsys, "construct", "cage", "--name", "petersen",
                             "--out", str(out_path))
        assert status == 0
        assert "(10, 15, 3, 2)" in out

    def test_plane(self, capsys, tmp_path):
        status, out, _ = run(capsys, "construct", "plane", "--q", "2",
                             "--out", str(tmp_path / "fano.frc"))
        assert status == 0
        assert "(7, 7, 3, 3)" in out

    def test_bad_parameters_exit_1(self, capsys, tmp_path):
        status, _, err = run(capsys, "construct", "turan", "--n", "7", "--r", "2",
                             "--out", str(tmp_path / "x.frc"))
        assert status == 1
        assert "does not divide" in err

    def test_missing_family_argument_exit_1(self, capsys, tmp_path):
        status, _, err = run(capsys, "construct", "turan", "--n", "6",
                             "--out", str(tmp_path / "x.frc"))
        assert status == 1
        assert "--r is required" in err

    def test_byte_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.frc", tmp_path / "b.frc"
        run(capsys, "construct", "td", "--rho", "3", "--alpha", "4", "--out", str(a))
        run(capsys, "construct", "td", "--rho", "3", "--alpha", "4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture
def td34_frc(capsys, tmp_path):
    path = tmp_path / "td34.frc"
    run(capsys, "construct", "td", "--rho", "3", "--alpha", "4", "--out", str(path))
    return path


@pytest.fixture
def k33_frc(capsys, tmp_path):
    path = tmp_path / "k33.frc"
    run(capsys, "construct", "turan", "--n", "6", "--r", "2", "--out", str(path))
    return path


class TestAnalyze:
    def test_td34_table_and_verdict(self, capsys, td34_frc):
        status, out, _ = run(capsys, "analyze", str(td34_frc))
        assert status == 0
        for row in ["1     4     4", "2     7     7", "3     9     9", "4    11    11"]:
            assert row in out
        assert "optimal=yes" in out
        assert "universally_good=yes" in out

    def test_json_report(self, capsys, td34_frc):
        status, out, _ = run(capsys, "analyze", str(td34_frc), "--format", "json")
        assert status == 0
        doc = json.loads(out)
        assert doc["schema"] == "frepkit-report/1"
        assert [row["M"] for row in doc["rows"]] == [4, 7, 9, 11]
        assert doc["verdicts"]["optimal"] is True

    def test_petersen_rows_match_girth_formula(self, capsys, tmp_path):
        path = tmp_path / "petersen.frc"
        run(capsys, "construct", "cage", "--name", "petersen", "--out", str(path))
        status, out, _ = run(capsys, "analyze", str(path), "--k-max", "6",
                             "--format", "json")
        assert status == 0
        doc = json.loads(out)
        assert [row["M"] for row in doc["rows"]] == [3, 5, 7, 9, 10, 12]

    def test_removed_jobs_flag_is_a_usage_error_exit_1(self, capsys, td34_frc):
        status, out, err = run(capsys, "analyze", str(td34_frc), "--jobs", "2")
        assert status == 1
        assert out == ""
        assert err.startswith("usage: frepkit")
        assert "unrecognized arguments: --jobs 2" in err

    def test_missing_subcommand_exits_1(self, capsys):
        status, _, err = run(capsys)
        assert status == 1
        assert "usage: frepkit" in err

    def test_help_exits_0(self, capsys):
        status, out, _ = run(capsys, "analyze", "--help")
        assert status == 0
        assert "usage: frepkit analyze" in out

    def test_lying_rho_header_exits_2(self, capsys, tmp_path, k33_frc):
        lying = tmp_path / "lying.frc"
        lines = k33_frc.read_text().splitlines()
        lines[0] = "FRC 6 9 3 3"  # claims rho=3 over a rho=2 incidence
        lying.write_text("\n".join(lines) + "\n")
        status, _, err = run(capsys, "analyze", str(lying))
        assert status == 2
        assert "cross-check failed" in err

    def test_budget_exceeded_exits_1(self, capsys, td34_frc, monkeypatch):
        monkeypatch.setenv("FREPKIT_BUDGET", "3")
        status, _, err = run(capsys, "analyze", str(td34_frc))
        assert status == 1
        assert "budget" in err

    def test_budget_flag_overrides(self, capsys, td34_frc):
        status, _, err = run(capsys, "analyze", str(td34_frc), "--budget", "3")
        assert status == 1
        assert "budget" in err

    def test_budget_flag_wins_over_the_environment(self, capsys, td34_frc, monkeypatch):
        monkeypatch.setenv("FREPKIT_BUDGET", "3")
        status, out, _ = run(capsys, "analyze", str(td34_frc), "--budget", "10000000")
        assert status == 0 and out.startswith("FR code:")

    def test_budget_is_shared_by_the_profile_rows(self, capsys, tmp_path):
        # Tutte-Coxeter's k <= 8 searches open 10,290 nodes together
        frc = tmp_path / "tc.frc"
        run(capsys, "construct", "cage", "--name", "tuttecoxeter", "--out", str(frc))
        status, out, _ = run(capsys, "analyze", str(frc), "--k-max", "8", "--budget", "10290")
        assert status == 0 and len(out.splitlines()) == 11
        status, out, err = run(capsys, "analyze", str(frc), "--k-max", "8", "--budget", "10289")
        assert status == 1 and out == ""
        assert "needs more than 10289 search nodes" in err

    def test_repeated_symbol_on_a_node_line_exits_1(self, capsys, tmp_path):
        path = tmp_path / "repeat.frc"
        path.write_text("FRC 3 3 2 2\n1 1\n2 3\n1 3\n")
        status, out, err = run(capsys, "analyze", str(path))
        assert status == 1
        assert out == ""
        assert f"{path}:2: symbol indices must ascend: 1 follows 1" in err
        assert "Traceback" not in err

    def test_missing_file_exits_1(self, capsys, tmp_path):
        status, _, err = run(capsys, "analyze", str(tmp_path / "nope.frc"))
        assert status == 1


class TestLifecycle:
    def test_store_kill_repair_reconstruct(self, capsys, td34_frc, tmp_path):
        root = tmp_path / "sysroot"
        status, out, _ = run(capsys, "store", "--code", str(td34_frc), "--k", "4",
                             "--root", str(root), "--seed", "42")
        assert status == 0
        assert "12 node files of 4 symbols" in out

        expected_digest = json.loads((root / "manifest.json").read_text())["file_sha256"]

        (root / "node_7.dat").unlink()
        status, out, _ = run(capsys, "repair", "--root", str(root), "--failed", "7")
        assert status == 0
        assert "bandwidth: 4 symbols" in out
        assert "restored" in out

        status, out, _ = run(capsys, "reconstruct", "--root", str(root),
                             "--nodes", "1,2,3,4")
        assert status == 0
        assert "digest: matches manifest" in out
        digest_after = json.loads((root / "manifest.json").read_text())["file_sha256"]
        assert digest_after == expected_digest

    def test_store_determinism_across_roots(self, capsys, td34_frc, tmp_path):
        for name in ("a", "b"):
            run(capsys, "store", "--code", str(td34_frc), "--k", "4",
                "--root", str(tmp_path / name), "--seed", "7")
        a, b = tmp_path / "a", tmp_path / "b"
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        for i in range(1, 13):
            assert (a / f"node_{i}.dat").read_bytes() == (b / f"node_{i}.dat").read_bytes()

    def test_reconstruct_with_too_few_nodes_refused(self, capsys, td34_frc, tmp_path):
        root = tmp_path / "sysroot"
        run(capsys, "store", "--code", str(td34_frc), "--k", "4",
            "--root", str(root), "--seed", "1")
        status, _, err = run(capsys, "reconstruct", "--root", str(root),
                             "--nodes", "1,2,3")
        assert status == 1
        assert "exactly k" in err

    def test_double_failure_irreparable(self, capsys, k33_frc, tmp_path):
        root = tmp_path / "sysroot"
        run(capsys, "store", "--code", str(k33_frc), "--k", "3",
            "--root", str(root), "--seed", "1")
        # symbol (1,4) loses both replicas when nodes 1 and 4 are gone
        status, _, err = run(capsys, "repair", "--root", str(root),
                             "--failed", "1", "--dead", "4")
        assert status == 1
        assert "no surviving replica" in err

    def test_plan_only_leaves_node_missing(self, capsys, td34_frc, tmp_path):
        root = tmp_path / "sysroot"
        run(capsys, "store", "--code", str(td34_frc), "--k", "4",
            "--root", str(root), "--seed", "2")
        (root / "node_3.dat").unlink()
        status, out, _ = run(capsys, "repair", "--root", str(root), "--failed", "3",
                             "--plan-only")
        assert status == 0
        assert "restored" not in out
        assert not (root / "node_3.dat").exists()

    def test_store_with_field_override(self, capsys, k33_frc, tmp_path):
        root = tmp_path / "sysroot"
        status, out, _ = run(capsys, "store", "--code", str(k33_frc), "--k", "3",
                             "--root", str(root), "--seed", "3", "--field-q", "256")
        assert status == 0
        assert "GF(256)" in out
        status, out, _ = run(capsys, "reconstruct", "--root", str(root),
                             "--nodes", "2,4,6")
        assert status == 0
        assert "digest: matches manifest" in out

    def test_store_from_file(self, capsys, k33_frc, tmp_path):
        payload = tmp_path / "payload.txt"
        payload.write_text("1 2 3 4 5 6 7\n")
        root = tmp_path / "sysroot"
        status, _, _ = run(capsys, "store", "--code", str(k33_frc), "--k", "3",
                           "--root", str(root), "--file", str(payload))
        assert status == 0
        status, out, _ = run(capsys, "reconstruct", "--root", str(root),
                             "--nodes", "4,5,6")
        assert status == 0
        assert "file: 1 2 3 4 5 6 7" in out


class TestBatchCommands:
    def test_max_t_k33(self, capsys, k33_frc):
        status, out, _ = run(capsys, "batch", str(k33_frc), "--max-t")
        assert status == 0
        assert "t = 5" in out
        assert "maximality witness" in out

    def test_max_t_td34(self, capsys, td34_frc):
        status, out, _ = run(capsys, "batch", str(td34_frc), "--max-t")
        assert status == 0
        assert "t = 11" in out

    def test_certify_petersen_at_7(self, capsys, tmp_path):
        path = tmp_path / "petersen.frc"
        run(capsys, "construct", "cage", "--name", "petersen", "--out", str(path))
        status, out, _ = run(capsys, "batch", str(path), "--t", "7")
        assert status == 0
        assert "certified" in out

    @pytest.mark.parametrize("q,t", [(2, 8), (3, 14)], ids=["pg2", "pg3"])
    def test_t_above_theta_is_refused(self, capsys, tmp_path, q, t):
        path = tmp_path / "plane.frc"
        run(capsys, "construct", "plane", "--q", str(q), "--out", str(path))
        status, out, err = run(capsys, "batch", str(path), "--t", str(t))
        assert status == 1
        assert out == ""
        assert err == f"error: --t: {t} exceeds the code's theta = {t - 1} symbols\n"

    def test_failed_certification_exits_1(self, capsys, k33_frc):
        status, out, _ = run(capsys, "batch", str(k33_frc), "--t", "6")
        assert status == 1
        assert "not retrievable" in out

    def test_certify_frb(self, capsys, k33_frc):
        status, out, _ = run(capsys, "certify-frb", str(k33_frc), "--k", "3")
        assert status == 0
        assert "2-(6, 7, 3, 3, 5)" in out
        assert out.count("pass") == 4

    def test_certify_frb_t_above_m_exits_1(self, capsys, k33_frc):
        status, _, err = run(capsys, "certify-frb", str(k33_frc), "--k", "1")
        assert status == 1
        assert "t = 5 exceeds" in err

    @pytest.mark.parametrize("wrong", ["no witness", "t symbols", "a plannable set"])
    def test_certify_frb_checks_the_maximality_witness(self, capsys, k33_frc, monkeypatch,
                                                       wrong):
        # property 4 holds only when t's witness is t + 1 symbols without a plan
        exact = batch.batch_t_detail

        def wrong_detail(code, budget=None):
            detail = exact(code, budget)
            plannable = next(request for request in combinations(range(1, code.theta + 1),
                                                                 detail.t + 1)
                             if isinstance(batch.retrieval_plan(code, request), BatchPlan))
            witness = {"no witness": None, "t symbols": detail.witness[1:],
                       "a plannable set": plannable}[wrong]
            return detail._replace(witness=witness)

        monkeypatch.setattr(batch, "batch_t_detail", wrong_detail)
        status, out, _ = run(capsys, "certify-frb", str(k33_frc), "--k", "3")
        assert status == 1
        assert "property: every t-batch retrievable: FAIL\n" in out
        assert out.count("pass") == 3
        status, out, _ = run(capsys, "certify-frb", str(k33_frc), "--k", "3", "--format", "json")
        assert status == 1
        assert json.loads(out)["frb"]["properties"]["every_t_batch_retrievable"] is False

    def test_certify_frb_json_joins_capacity_report(self, capsys, td34_frc):
        status, out, _ = run(capsys, "certify-frb", str(td34_frc), "--k", "4",
                             "--format", "json")
        assert status == 0
        doc = json.loads(out)
        assert doc["schema"] == "frepkit-report/1"
        assert [row["M"] for row in doc["rows"]] == [4, 7, 9, 11]
        assert doc["frb"]["tuple"] == "3-(12, 11, 4, 4, 11)"
        assert doc["frb"]["properties"]["every_t_batch_retrievable"] is True

    def test_certify_frb_json_cross_checks_the_two_searches(self, capsys, td34_frc,
                                                             monkeypatch):
        # the certificate's M(k) comes from file_size, the report's row k from
        # the capacity profile: two exact searches that must agree
        exact = batch.file_size
        monkeypatch.setattr(batch, "file_size",
                            lambda code, k, budget=None: exact(code, k, budget) + 1)
        status, out, err = run(capsys, "certify-frb", str(td34_frc), "--k", "4",
                               "--format", "json")
        assert status == 2
        assert json.loads(out)["frb"]["M"] == 12
        assert ("cross-check failed: M(4) = 12 in the certificate "
                "but 11 in the capacity profile") in err
        # past the profile's rows (k > alpha) there is no row k to compare
        status, _, err = run(capsys, "certify-frb", str(td34_frc), "--k", "5",
                             "--format", "json")
        assert status == 0 and err == ""


SYSTEM_V1 = Path(__file__).parent / "data" / "td34_k4_seed0"


class TestStoredFormat:
    def test_store_rewrites_checked_in_store(self, capsys, td34_frc, tmp_path):
        root = tmp_path / "sysroot"
        status, _, _ = run(capsys, "store", "--code", str(td34_frc), "--k", "4",
                           "--root", str(root), "--seed", "0")
        assert status == 0
        for path in SYSTEM_V1.iterdir():
            assert (root / path.name).read_bytes() == path.read_bytes(), path.name

    def test_store_over_gf25_matches_pinned_manifest(self, capsys, td34_frc, tmp_path):
        # the manifest lists every node file's SHA-256, so its digest pins
        # the whole store as the coefficient-form encoder wrote it
        root = tmp_path / "sysroot"
        status, _, _ = run(capsys, "store", "--code", str(td34_frc), "--k", "4",
                           "--root", str(root), "--seed", "0", "--field-q", "25")
        assert status == 0
        assert hashlib.sha256((root / "manifest.json").read_bytes()).hexdigest() == (
            "231f821193a972bb9a573c0a7a9c57f23723c6d56d326a39647eda6bb0192de3")
        verify_integrity(root)

    @pytest.mark.parametrize("mds", [
        {"systematic": False, "eval_points": list(range(16))},
        {"systematic": True, "eval_points": [1, 0] + list(range(2, 16))},
    ], ids=["non-systematic", "permuted-points"])
    def test_reconstruct_refuses_foreign_outer_code(self, capsys, tmp_path, mds):
        root = tmp_path / "sysroot"
        shutil.copytree(SYSTEM_V1, root)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["mds"] = mds
        (root / "manifest.json").write_text(json.dumps(manifest))
        status, out, err = run(capsys, "reconstruct", "--root", str(root),
                               "--nodes", "1,2,3,4")
        assert status == 1
        assert out == ""
        assert "outer code" in err


def copy_store(tmp_path):
    root = tmp_path / "sysroot"
    shutil.copytree(SYSTEM_V1, root)
    return root


class TestCorruptStore:
    # node 2 holds symbols 5..8; reconstruct from nodes 1..4 reads it, and
    # so does the repair of node 5, which takes symbol 6 from it
    @pytest.mark.parametrize("name,data", [
        ("node_2.dat", b"2 4\n1 one\n"),
        ("node_2.dat", b"\xff\n"),
        ("manifest.json", b'{"schema": "frepkit-sys'),
        ("manifest.json", b'{"schema": "frepkit-system/1"}'),
        ("manifest.json", b'{"code": 7}'),
    ], ids=["node-non-integer", "node-non-ascii", "manifest-truncated",
            "manifest-missing-key", "manifest-wrong-type"])
    @pytest.mark.parametrize("command", [
        ["reconstruct", "--nodes", "1,2,3,4"],
        ["repair", "--failed", "5"],
    ], ids=["reconstruct", "repair"])
    def test_exits_1_with_error_message(self, capsys, tmp_path, name, data, command):
        root = copy_store(tmp_path)
        assert (6, 2) in plan_repair(load_system(root), 5).transfers
        (root / name).write_bytes(data)
        (root / "node_5.dat").unlink()  # a failed repair must not bring it back
        status, _, err = run(capsys, command[0], "--root", str(root), *command[1:])
        assert status == 1
        assert err.startswith("error: ") and name in err
        assert not (root / "node_5.dat").exists()

    def test_garbled_node_outside_the_command_is_not_read(self, capsys, tmp_path):
        root = copy_store(tmp_path)
        original = (root / "node_1.dat").read_bytes()
        (root / "node_3.dat").write_bytes(b"\xff garbled")
        status, out, _ = run(capsys, "reconstruct", "--root", str(root),
                             "--nodes", "1,2,5,10")
        assert status == 0
        assert "digest: matches manifest" in out
        (root / "node_1.dat").unlink()  # its donors are nodes 5..8
        status, out, _ = run(capsys, "repair", "--root", str(root), "--failed", "1")
        assert status == 0
        assert (root / "node_1.dat").read_bytes() == original

    def test_tampered_single_replica_prints_no_file(self, capsys, tmp_path):
        # nodes 1, 2, 5, 10 cover exactly M = 11 symbols; only node 1 holds symbol 2
        root = copy_store(tmp_path)
        path = root / "node_1.dat"
        lines = path.read_text().splitlines()
        j, v = lines[2].split()
        lines[2] = f"{j} {(int(v) + 1) % 16}"
        path.write_text("\n".join(lines) + "\n")
        status, out, err = run(capsys, "reconstruct", "--root", str(root),
                               "--nodes", "1,2,5,10")
        assert status == 1
        assert out == ""
        assert "node_1.dat checksum mismatch" in err

    def test_edited_file_digest_prints_no_file(self, capsys, tmp_path):
        root = copy_store(tmp_path)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["file_sha256"] = "0" * 64
        (root / "manifest.json").write_text(json.dumps(manifest))
        status, out, err = run(capsys, "reconstruct", "--root", str(root),
                               "--nodes", "1,2,3,4")
        assert status == 1
        assert out == ""
        assert "does not match the stored digest" in err


class TestInputErrors:
    @pytest.mark.parametrize("argv,budget,source", [
        (["analyze", "{frc}"], "abc", "FREPKIT_BUDGET: 'abc'"),
        (["reconstruct", "--root", "{root}", "--nodes", "1,x"], None, "--nodes: 'x'"),
        (["repair", "--root", "{root}", "--failed", "1", "--dead", "y"], None, "--dead: 'y'"),
        (["store", "--code", "{frc}", "--k", "4", "--root", "{new}", "--file", "{file}"],
         None, "payload.txt: '3x'"),
        (["batch", "{frc}", "--t", "0"], None, "--t: 0"),
        (["batch", "{frc}", "--t", "-1"], None, "--t: -1"),
        (["analyze", "{latin1}"], None, "latin1.frc:2: bytes outside ASCII"),
        (["analyze", "{dir}"], None, "Is a directory"),
        (["store", "--code", "{frc}", "--k", "4", "--root", "{new}", "--file", "{dir}"],
         None, "Is a directory"),
        (["store", "--code", "{frc}", "--k", "4", "--root", "{file}"], None, "File exists"),
        (["store", "--code", "{frc}", "--k", "4", "--root", "{root}"], None,
         "already holds a stored system"),
        (["store", "--code", "{frc}", "--k", "4", "--root", "{new}", "--field-q", "0"],
         None, "GF(0) is not a built-in field"),
        (["repair", "--root", "{root}", "--failed", "1", "--dead", "99"], None,
         "node id 99 out of range 1..12"),
        (["repair", "--root", "{root}", "--failed", "1", "--dead", "0,-3"], None,
         "node id 0 out of range 1..12"),
        # int() reads all three; an integer field is ASCII decimal only
        (["reconstruct", "--root", "{root}", "--nodes", "1,2,3,\u0667"], None,
         "--nodes: '\u0667'"),
        (["reconstruct", "--root", "{root}", "--nodes", "1,2,3,0_4"], None, "--nodes: '0_4'"),
        (["reconstruct", "--root", "{root}", "--nodes", "1,2,3,+4"], None, "--nodes: '+4'"),
        (["analyze", "{frc}"], "1_000", "FREPKIT_BUDGET: '1_000'"),
        (["repair", "--root", "{root}", "--failed", "1", "--dead", "+4"], None, "--dead: '+4'"),
        (["analyze", "{plus}"], None, "plus.frc:2: node line: '+2' is not an integer"),
    ], ids=["budget-env", "nodes", "dead", "store-file", "batch-t-0", "batch-t-negative",
            "non-ascii-frc", "directory-frc", "store-file-directory", "store-root-file",
            "store-over-a-system", "field-q-0", "dead-99", "dead-0-and-negative",
            "nodes-arabic-indic-digit", "nodes-underscore", "nodes-plus",
            "budget-env-underscore", "dead-plus", "frc-plus"])
    def test_exits_1_naming_the_value(self, capsys, tmp_path, monkeypatch, td34_frc,
                                      argv, budget, source):
        if budget is not None:
            monkeypatch.setenv("FREPKIT_BUDGET", budget)
        payload = tmp_path / "payload.txt"
        payload.write_text("1 2 3x 4\n")
        latin1 = tmp_path / "latin1.frc"
        latin1.write_bytes(b"FRC 3 3 2 2\n1 2 \xe9\n1 3\n2 3\n")
        plus = tmp_path / "plus.frc"
        plus.write_text("FRC 3 3 2 2\n+2 +3\n1 3\n1 2\n")
        (tmp_path / "dir").mkdir()
        paths = {"frc": td34_frc, "root": copy_store(tmp_path), "new": tmp_path / "new",
                 "file": payload, "latin1": latin1, "plus": plus, "dir": tmp_path / "dir"}
        status, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
        assert status == 1
        assert out == ""
        assert err.startswith("error: ") and source in err
        assert "Traceback" not in err
        assert not (tmp_path / "new").exists()

    # int() reads each form; argparse's own error names the option
    @pytest.mark.parametrize("value", ["+4", "٣", " 2", "1_0"],
                             ids=["plus", "arabic-indic-digit", "space", "underscore"])
    def test_every_integer_option_is_ascii_decimal(self, capsys, tmp_path, td34_frc, value):
        frc, root = str(td34_frc), str(copy_store(tmp_path))
        valid = {
            "construct": ["construct", "td", "--rho", "3", "--alpha", "4",
                          "--out", str(tmp_path / "new.frc")],
            "analyze": ["analyze", frc],
            "store": ["store", "--code", frc, "--k", "4", "--root", str(tmp_path / "new")],
            "repair": ["repair", "--root", root, "--failed", "1", "--plan-only"],
            "batch": ["batch", frc, "--t", "1"],
            "certify-frb": ["certify-frb", frc, "--k", "4"],
        }
        options = {
            "construct": ["--n", "--r", "--rho", "--alpha", "--q"],
            "analyze": ["--k-max", "--budget"],
            "store": ["--k", "--seed", "--field-q"],
            "repair": ["--failed"],
            "batch": ["--t", "--budget"],
            "certify-frb": ["--k", "--budget"],
        }
        for command, flags in options.items():
            for flag in flags:
                status, out, err = run(capsys, *valid[command], flag, value)
                assert status == 1, (flag, out)
                assert out == ""
                assert f"error: argument {flag}: {value!r} is not an integer" in err
        assert not (tmp_path / "new").exists()
        assert not (tmp_path / "new.frc").exists()


class TestStoreBudget:
    def test_budget_lets_store_run_where_analyze_does(self, capsys, tmp_path):
        # PG(2,7): the greedy incumbent meets the floor, so neither command
        # searches and both run at the default budget, C(57, 8) notwithstanding
        pg7 = tmp_path / "pg7.frc"
        run(capsys, "construct", "plane", "--q", "7", "--out", str(pg7))
        status, _, _ = run(capsys, "analyze", str(pg7))
        assert status == 0
        status, out, _ = run(capsys, "store", "--code", str(pg7), "--k", "8",
                             "--root", str(tmp_path / "sys"))
        assert status == 0
        assert "57 node files of 8 symbols" in out
        verify_integrity(tmp_path / "sys")

    def test_budget_of_1_refuses_and_writes_nothing(self, capsys, tmp_path, monkeypatch,
                                                    td34_frc):
        monkeypatch.setenv("FREPKIT_BUDGET", "1")
        status, _, err = run(capsys, "store", "--code", str(td34_frc), "--k", "4",
                             "--root", str(tmp_path / "sys"))
        assert status == 1
        assert "budget" in err
        assert not (tmp_path / "sys").exists()
