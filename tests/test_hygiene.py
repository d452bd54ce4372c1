"""Source hygiene: no module of the package imports a name it never uses, and
only one module holds a thread pool."""

from __future__ import annotations

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "vastop"
# __init__.py only re-exports (and imports _threads for its side effect)
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never loads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"cli", "io", "mc", "model", "lattice", "pde"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_name():
    src = "from __future__ import annotations\nimport os\nfrom dataclasses import dataclass, field\n" \
          "@dataclass\nclass A:\n    x: int = 0\n"
    assert unused_imports(src) == ["os (line 2)", "field (line 3)"]


def pool_imports(source: str) -> list[str]:
    """Imports of concurrent.futures, or of a name from it, that a module makes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("concurrent")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("concurrent"):
            found += [f"{node.module}.{a.name}" for a in node.names]
    return found


def test_thread_pool_lives_in_one_module():
    # the pool logic exists once: every other module maps over _threads.ordered_map
    users = {p.name for p in PACKAGE.glob("*.py")
             if pool_imports(p.read_text(encoding="utf-8"))
             or "ThreadPoolExecutor" in p.read_text(encoding="utf-8")}
    assert users == {"_threads.py"}


def test_pool_checker_flags_every_import_form():
    src = "import concurrent.futures\nfrom concurrent.futures import ThreadPoolExecutor as P\n" \
          "from concurrent import futures\n"
    assert pool_imports(src) == ["concurrent.futures", "concurrent.futures.ThreadPoolExecutor",
                                 "concurrent.futures"]
