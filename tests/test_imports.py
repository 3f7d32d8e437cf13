"""Every module of the package (bar __init__.py) and of the tests reads each
name it imports; a dead import is reported with its line. Every top-level
function and class of the package is read by the package or the benchmark;
a dead definition is reported with its module and line."""

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
# modules whose reads keep a definition alive; tests do not count
CALLERS = sorted(
    os.path.join(d, name)
    for d in (os.path.join("src", "avtrait"), "benchmarks")
    for name in os.listdir(os.path.join(ROOT, d))
    if name.endswith(".py")
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


def _reads(node) -> set:
    """Names and attribute names that expressions under `node` read."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
    return names


def dead_definitions(sources: dict, defining) -> list:
    """(path, line, name) of each top-level function or class of a module in
    `defining` that no module in `sources` (path -> source) reads outside
    that definition's own body."""
    read = set()
    defined = []
    for path, source in sources.items():
        for stmt in ast.parse(source).body:
            reads = _reads(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                reads.discard(stmt.name)
                if path in defining:
                    defined.append((path, stmt.lineno, stmt.name))
            read |= reads
    return sorted(d for d in defined if d[2] not in read)


def test_checker_finds_dead_definitions():
    sources = {
        "a.py": "def used():\n    pass\n\n\ndef dead():\n    return dead()\n\n\nclass Kept:\n    pass\n",
        "b.py": "import a\nfrom a import used\n\nused()\na.Kept()\n\n\ndef dead():\n    pass\n",
    }
    assert dead_definitions(sources, {"a.py"}) == [("a.py", 5, "dead")]


def test_no_dead_definitions():
    sources = {}
    for path in CALLERS:
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            sources[path] = fh.read()
    defining = {p for p in CALLERS if p.startswith("src") and not p.endswith("__init__.py")}
    assert dead_definitions(sources, defining) == []


def test_checker_finds_dead_imports():
    source = "import os.path\nimport numpy as np\nfrom a import b, c as d  # noqa: F401\nos.sep\nb()\n"
    assert unused_imports(source) == [(2, "np"), (3, "d")]


@pytest.mark.parametrize("path", MODULES)
def test_no_unused_imports(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def readers(source: str, name: str) -> list:
    """Top-level definitions (or "<module>") whose bodies read `name`, once per read."""
    found = []
    for stmt in ast.parse(source).body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>"
        for n in ast.walk(stmt):
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
                if (n.id if isinstance(n, ast.Name) else n.attr) == name:
                    found.append(owner)
    return found


def test_checker_finds_readers():
    source = "import d\nfrom d import f\n\n\ndef a():\n    return f(1) + d.f(2)\n\n\ng = f\n"
    assert readers(source, "f") == ["a", "a", "<module>"]


def test_load_clip_has_one_caller():
    # Inference opens clips with open_clip and reads only the frames it
    # scores; a whole-clip load_clip is left to training's index_clip alone.
    # When index_clip stops loading whole clips too (ROADMAP item 3 unlocks
    # it), this list becomes empty.
    package = os.path.join("src", "avtrait")
    found = []
    for path in MODULES:
        if path.startswith(package):
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                found += [(os.path.basename(path), owner) for owner in readers(fh.read(), "load_clip")]
    assert found == [("data.py", "index_clip")], "load_clip reads a whole clip; see ROADMAP item 3"


def imported_modules(source: str) -> set:
    """Dotted names of the modules `source` imports; `from a import b` gives
    both "a" and "a.b", since b may be a module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            found |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
    return found


def test_package_imports_no_thread_pool():
    # Clips and frames are scored one at a time. Two frame workers, with
    # OpenBLAS set to one thread through its own setter, took about a
    # quarter less time per canonical frame, bitwise, on a 2-core VM. Two
    # things block them: they lifted clip_infer's peak_rss_mb by about 23%,
    # past its 5% bound, and benchmarks/tracer.py keeps one span stack,
    # which concurrent layers would corrupt under --trace 1. Splitting
    # training's elementwise layers over two threads lost outright, because
    # OpenBLAS's worker keeps spinning on the second core after each
    # product. The figures are in CHANGES.md. A worker pool comes back only
    # with a measurement it wins and both blockers cleared.
    banned = ("concurrent.futures", "threading")
    package = os.path.join(ROOT, "src", "avtrait")
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                found += [
                    (name, m) for m in sorted(imported_modules(fh.read()))
                    if any(m == b or m.startswith(b + ".") for b in banned)
                ]
    assert found == []
