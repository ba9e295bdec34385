"""No kernel recurses once per step of its input: Python stops at 1000 frames
by default, so such a function raises RecursionError on a long enough input
(a matcher recursing along an augmenting path did, on a 1,201-node path
code).  Each cycle in a module's call graph of named functions, a function
that calls itself or functions that call each other in turn, is listed here
with the bound on its depth."""

import ast

import networkx as nx
from test_no_asserts import SOURCES

ALLOWED = {
    # _Profile.search picks one node per descend frame, and below_path opens
    # one child of a path node between two of them: at most 2k frames deep
    ("analyze.py", frozenset({"descend", "below_path"})),
    # _discover_orbits's leaf_search, a plain recursive function, individualizes
    # one node per frame: at most the number of refinement levels of the first
    # path deep
    ("analyze.py", frozenset({"leaf_search"})),
}


def _callees(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """The names node calls in its own body, by name or as a method of self
    or cls; the calls of a function defined inside it are that function's."""
    names, todo = set(), list(ast.iter_child_nodes(node))
    while todo:
        child = todo.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.Call):
            f = child.func
            if isinstance(f, ast.Name):
                names.add(f.id)
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id in ("self", "cls")):
                names.add(f.attr)
        todo.extend(ast.iter_child_nodes(child))
    return names


def call_cycles(source: str) -> set[frozenset[str]]:
    """The cycles of the module's call graph of named functions: each
    strongly connected set of two or more, and each function calling itself."""
    graph = nx.DiGraph()
    defs = [node for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    graph.add_nodes_from(node.name for node in defs)
    for node in defs:
        graph.add_edges_from((node.name, callee) for callee in _callees(node)
                             if callee in graph)
    return {frozenset(part) for part in nx.strongly_connected_components(graph)
            if len(part) > 1 or graph.has_edge(*part, *part)}


def test_only_depth_bounded_functions_call_themselves():
    found = set()
    for path in SOURCES:
        found.update((path.name, cycle)
                     for cycle in call_cycles(path.read_text(encoding="utf-8")))
    assert found == ALLOWED


def test_mutual_recursion_is_a_cycle():
    source = """
def outer():
    def a(n):
        return b(n - 1) if n else 0

    def b(n):
        return a(n)

    return a(3)


class K:
    def walk(self, n):
        return self.step(n)

    def step(self, n):
        return self.walk(n - 1) if n else n


def plain(n):
    return helper(n) + len(range(n))


def helper(n):
    return n
"""
    assert call_cycles(source) == {frozenset({"a", "b"}), frozenset({"walk", "step"})}
