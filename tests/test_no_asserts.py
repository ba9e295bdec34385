"""Runtime invariants must survive `python -O`, which strips assert statements."""

import ast
from pathlib import Path

import frepkit

SOURCES = sorted(Path(frepkit.__file__).parent.glob("*.py"))


def test_sources_found():
    assert any(path.name == "analyze.py" for path in SOURCES)


def test_package_has_no_assert_statements():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert found == []
