"""Every input comes from arguments and files; no module reads the environment."""

import ast

from test_no_asserts import SOURCES

ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _names(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def test_no_module_reads_the_environment():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno} {name}" for node in ast.walk(tree)
                     for name in _names(node) if name in ENVIRONMENT)
    assert found == []
