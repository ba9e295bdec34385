"""Memoisation lives on the objects it serves, never in module-global caches."""

import ast

from test_no_asserts import SOURCES

CACHE_DECORATORS = {"lru_cache", "cache"}


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def test_no_function_carries_a_functools_cache():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno} {node.name}" for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and any(_decorator_name(d) in CACHE_DECORATORS
                             for d in node.decorator_list))
    assert found == []
