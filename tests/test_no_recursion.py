"""No kernel recurses once per step of its input: Python stops at 1000 frames
by default, so such a function raises RecursionError on a long enough input
(a matcher recursing along an augmenting path did, on a 1,201-node path
code).  Each function of the package that calls itself by name is listed
here with the bound on its depth."""

import ast

from test_no_asserts import SOURCES

ALLOWED = {
    # _Profile.search picks one node per frame: at most k frames deep
    ("analyze.py", "descend"),
    # _discover_orbits individualizes one node per frame: at most the number
    # of refinement levels of the first path deep
    ("analyze.py", "leaf_search"),
}


def _calls_itself(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            f = call.func
            if isinstance(f, ast.Name) and f.id == node.name:
                return True
            if (isinstance(f, ast.Attribute) and f.attr == node.name
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                return True
    return False


def test_only_depth_bounded_functions_call_themselves():
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.update((path.name, node.name) for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and _calls_itself(node))
    assert found == ALLOWED
