"""Every module of the package (bar __init__.py) and of the tests reads each
name it imports; a dead import is reported with its line."""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = (os.path.join("src", "avtrait"), "tests")
MODULES = sorted(
    os.path.join(d, name)
    for d in DIRS
    for name in os.listdir(os.path.join(ROOT, d))
    if name.endswith(".py") and name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no expression in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in bound if name not in read)


def test_checker_finds_dead_imports():
    source = "import os.path\nimport numpy as np\nfrom a import b, c as d  # noqa: F401\nos.sep\nb()\n"
    assert unused_imports(source) == [(2, "np"), (3, "d")]


@pytest.mark.parametrize("path", MODULES)
def test_no_unused_imports(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
