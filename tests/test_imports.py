"""Import hygiene: every module of the package and of its tests uses what it imports,
and imports only at module level."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mitk").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# mitk/__init__.py imports only to re-export, so it is left out of the unused-name scan
MODULES = sorted([p for p in PACKAGE if p.name != "__init__.py"] + TESTS)


def _dotted(node):
    """`a.b.c` for an attribute chain rooted at a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def unused_imports(source: str) -> list:
    """(line, name) of each name the source imports and never mentions.

    `import a.b` counts as used when some expression reads `a.b` or an
    attribute of it; `from __future__` imports are directives, not names.
    """
    tree = ast.parse(source)
    imported = {}
    mentioned = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = _dotted(node)
            if name is not None:
                # every prefix of `a.b.c` is read: `a`, `a.b` and `a.b.c`
                parts = name.split(".")
                mentioned.update(".".join(parts[:k]) for k in range(1, len(parts) + 1))
    return sorted((line, name) for name, line in imported.items() if name not in mentioned)


def test_scan_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import a.b\n"
        "import a.c\n"
        "from x import y, z as w\n"
        "print(y, a.b.f())\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "a.c"), (5, "w")]


def test_every_import_is_used():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for line, name in unused_imports(path.read_text())
    ]
    assert not unused, "imported and never used:\n" + "\n".join(unused)


def local_imports(source: str) -> list:
    """Line of each import statement inside a function body, nested ones included."""
    return sorted({
        node.lineno
        for func in ast.walk(ast.parse(source))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def test_scan_finds_local_imports():
    source = (
        "import os\n"
        "def f():\n"
        "    import json\n"
        "    def g():\n"
        "        from x import y\n"
        "    return os, json, g\n"
        "class C:\n"
        "    async def h(self):\n"
        "        import re\n"
    )
    assert local_imports(source) == [3, 5, 9]


def _assert_imports_only_at_module_level(paths):
    local = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in paths
        for line in local_imports(path.read_text())
    ]
    assert not local, "imported inside a function:\n" + "\n".join(local)


def test_package_imports_only_at_module_level():
    _assert_imports_only_at_module_level(PACKAGE)


def test_tests_import_only_at_module_level():
    _assert_imports_only_at_module_level(TESTS)
