"""Every name a module lists in __all__ must exist in that module."""

import ast
import importlib

import pytest

from test_no_asserts import SOURCES


def _exported(path):
    """The literal __all__ of a source file, or None when it has none."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return None


EXPORTING = [path for path in SOURCES if _exported(path) is not None]


def test_exporting_modules_found():
    assert {"analyze", "galois"} <= {path.stem for path in EXPORTING}


@pytest.mark.parametrize("path", EXPORTING, ids=[path.stem for path in EXPORTING])
def test_every_exported_name_exists(path):
    module = importlib.import_module(f"frepkit.{path.stem}")
    assert [name for name in _exported(path) if not hasattr(module, name)] == []
