"""Golden reports: the stdout and exit code of `analyze --format json`,
`batch --max-t` and `certify-frb --format json` on five catalog codes,
checked in under tests/data/golden.  A change to any of these reports shows
here as a difference from its file.  After a deliberate change, rewrite the
files with `PYTHONPATH=src python tests/test_golden_reports.py` and review
the diff.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from frepkit import from_design, from_graph, projective_plane, save, transversal_design
from frepkit.cli import main
from frepkit.construct import cage

GOLDEN = Path(__file__).parent / "data" / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

# name: (code, the k that certify-frb certifies); TD(4,5) has t = 19 > M(5),
# so its certification is refused with exit 1 and no stdout
CODES = {
    "petersen": (lambda: from_graph(cage("petersen")), 3),
    "heawood": (lambda: from_graph(cage("heawood")), 4),
    "td34": (lambda: from_design(transversal_design(3, 4)), 4),
    "td45": (lambda: from_design(transversal_design(4, 5)), 5),
    "pg3": (lambda: from_design(projective_plane(3)), 10),
}
REPORTS = {
    "analyze": lambda path, k: ["analyze", path, "--format", "json"],
    "batch": lambda path, k: ["batch", path, "--max-t"],
    "certify-frb": lambda path, k: ["certify-frb", path, "--k", str(k), "--format", "json"],
}


def run_report(code: str, report: str, directory, *options: str) -> tuple[int, str]:
    """(exit code, stdout) of one report on one code, written to directory."""
    make, k = CODES[code]
    path = Path(directory) / f"{code}.frc"
    save(make(), path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main([*REPORTS[report](str(path), k), *options])
    return status, out.getvalue()


@pytest.mark.parametrize("report", sorted(REPORTS))
@pytest.mark.parametrize("code", sorted(CODES))
def test_report_matches_golden(tmp_path, code, report):
    status, stdout = run_report(code, report, tmp_path)
    name = f"{code}.{report}"
    assert status == json.loads(EXIT_CODES.read_text(encoding="ascii"))[name]
    assert stdout == (GOLDEN / f"{name}.out").read_text(encoding="ascii")


def test_set_up_settles_the_td34_report_at_budget_0(tmp_path):
    # the colouring floor meets every greedy incumbent of TD(3,4): no search node
    status, stdout = run_report("td34", "analyze", tmp_path, "--budget", "0")
    assert status == 0
    assert stdout == (GOLDEN / "td34.analyze.out").read_text(encoding="ascii")


def write_goldens() -> None:
    exit_codes = {}
    with tempfile.TemporaryDirectory() as directory:
        for code in sorted(CODES):
            for report in sorted(REPORTS):
                status, stdout = run_report(code, report, directory)
                (GOLDEN / f"{code}.{report}.out").write_text(stdout, encoding="ascii")
                exit_codes[f"{code}.{report}"] = status
    EXIT_CODES.write_text(json.dumps(exit_codes, indent=2, sort_keys=True) + "\n",
                          encoding="ascii")


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    write_goldens()
