"""What each command imports, and the lazy package namespace.

`import frepkit` loads no submodule; each CLI command imports the modules it
runs.  The module sets are read in a fresh interpreter per command, with no
bytecode written, as a user's command runs.  No command loads `dataclasses`
or `inspect`, and only the DRESS commands, which read or write a manifest,
load `json`; these are counted beyond what a bare interpreter has loaded.
"""

import ast
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import frepkit
from frepkit import batch, from_design, save, transversal_design

SRC = Path(__file__).resolve().parent.parent / "src"
STORED = Path(__file__).resolve().parent / "data" / "td34_k4_seed0"

# runs `python -m frepkit ARGS` and prints the modules loaded, last
RUN_CLI = """
import atexit, runpy, sys
atexit.register(lambda: print(" ".join(sorted(sys.modules))))
sys.argv = ["frepkit", *sys.argv[1:]]
runpy.run_module("frepkit", run_name="__main__", alter_sys=True)
"""


def _python(cwd, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=60)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup")
    save(from_design(transversal_design(3, 4)), path / "td34.frc")
    shutil.copytree(STORED, path / "sys")
    return path


@pytest.fixture(scope="module")
def bare(workdir) -> set[str]:
    """The modules a bare interpreter has loaded here; `site` may import some."""
    proc = _python(workdir, "-c", "import sys; print(sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout))


# standard-library modules whose import, or whose own imports, a command run pays for
COSTLY = {"dataclasses", "inspect", "json"}


DRESS_READ = {"cli", "errors", "dress", "galois", "incidence", "matching"}
BATCH = {"cli", "errors", "incidence", "analyze", "matching", "batch"}


@pytest.mark.parametrize("argv,modules", [
    (["--help"], {"cli", "errors"}),
    (["construct", "td", "--rho", "3", "--alpha", "4", "--out", "new.frc"],
     {"cli", "errors", "construct", "analyze", "galois", "incidence"}),
    (["analyze", "td34.frc"], {"cli", "errors", "incidence", "analyze"}),
    (["store", "--code", "td34.frc", "--k", "4", "--root", "new", "--seed", "0"],
     DRESS_READ | {"analyze"}),
    (["reconstruct", "--root", "sys", "--nodes", "1,2,3,4"], DRESS_READ),
    (["repair", "--root", "sys", "--failed", "1", "--plan-only"], DRESS_READ),
    (["batch", "td34.frc", "--max-t"], BATCH),
    (["certify-frb", "td34.frc", "--k", "4"], BATCH),
], ids=["help", "construct", "analyze", "store", "reconstruct", "repair", "batch",
        "certify-frb"])
def test_each_command_loads_only_its_modules(workdir, bare, argv, modules):
    proc = _python(workdir, "-c", RUN_CLI, *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert {m for m in loaded if m.split(".")[0] == "frepkit"} == {
        "frepkit", *(f"frepkit.{m}" for m in modules)}
    manifest = {"json"} if "dress" in modules else set()
    assert (loaded - bare) & COSTLY == manifest - bare


def test_import_frepkit_loads_no_submodule(tmp_path):
    proc = _python(tmp_path, "-c", "import sys, frepkit; print(sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    loaded = {m for m in ast.literal_eval(proc.stdout) if m.startswith("frepkit")}
    assert loaded <= {"frepkit", "frepkit.errors"}


# the public names of the package before it became lazy, by defining module
PUBLIC = {
    "analyze": ["CapacityProfile", "capacity_profile", "file_size", "fr_capacity_bound",
                "girth", "girth_file_size", "has_k_clique", "lemma7_flag",
                "max_induced_edges", "mbr_capacity", "moore_bound",
                "td_file_size_lower_bound", "turan_file_size"],
    "batch": ["BatchPlan", "NoPlan", "batch_t", "batch_t_detail", "frb_certify",
              "retrieval_plan", "theorem5_predicted_t"],
    "construct": ["cage", "cage_catalog", "projective_plane", "transversal_design", "turan"],
    "dress": ["RepairPlan", "StoredSystem", "execute_repair", "load_system", "plan_repair",
              "reconstruct", "store", "verify_integrity"],
    "errors": ["BudgetExceededError", "CorruptionError", "FormatError", "FrbDefinitionError",
               "FrepkitError", "IrreparableError", "ParameterError"],
    "galois": ["GF", "MdsCode", "default_field_for"],
    "incidence": ["CodeReport", "Design", "FrCode", "Graph", "TransversalDesign",
                  "from_design", "from_graph", "load", "save", "validate"],
    "matching": [],
}
# the submodules were attributes of the package too
NAMES = sorted({*PUBLIC, *(name for names in PUBLIC.values() for name in names)})


class TestLazyNamespace:
    @pytest.mark.parametrize("module", sorted(PUBLIC))
    def test_every_name_is_the_defining_modules_object(self, module):
        source = importlib.import_module(f"frepkit.{module}")
        assert getattr(frepkit, module) is source
        for name in PUBLIC[module]:
            assert getattr(frepkit, name) is getattr(source, name), name

    def test_dir_and_star_import_list_the_same_names(self, tmp_path):
        proc = _python(tmp_path, "-c", "import frepkit; ns = {}; "
                       "exec('from frepkit import *', ns); "
                       "print(sorted(n for n in dir(frepkit) if not n.startswith('_'))); "
                       "print(sorted(n for n in ns if n != '__builtins__'))")
        assert proc.returncode == 0, proc.stderr
        listed, starred = proc.stdout.splitlines()
        assert ast.literal_eval(listed) == ast.literal_eval(starred) == NAMES
        assert sorted(frepkit.__all__) == NAMES

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'frepkit' has no attribute 'no_such_name'"):
            frepkit.no_such_name  # noqa: B018
        assert not hasattr(frepkit, "cage_size")  # public in analyze, not exported

    def test_the_first_access_binds_the_name(self, monkeypatch):
        monkeypatch.delitem(vars(frepkit), "retrieval_plan", raising=False)
        resolve = frepkit.__getattr__
        calls = []
        monkeypatch.setattr(frepkit, "__getattr__",
                            lambda name: calls.append(name) or resolve(name))
        assert frepkit.retrieval_plan is frepkit.retrieval_plan is batch.retrieval_plan
        assert calls == ["retrieval_plan"]
