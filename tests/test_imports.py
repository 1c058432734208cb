"""Static checks: every name a capsloc module imports is used in that module,
every private name a module or its classes define is read somewhere in the
package, and every name a module lists in __all__ is defined in it."""

import ast
import pathlib
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "capsloc"


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _bound_names(node) -> list:
    """Names a def, class or plain assignment statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _reads(tree) -> Counter:
    """How often each name is read in tree: loaded as a name or an
    attribute, or imported from another module."""
    read = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources: dict) -> list:
    """(module, name) of each private name (leading `_`, not a dunder) bound
    at module level, or as Class.name in a module-level class's body, that
    none of the sources reads outside its own definition. sources maps
    module -> text."""
    defined, read = [], Counter()
    for module, source in sources.items():
        tree = ast.parse(source)
        read += _reads(tree)
        for node in tree.body:
            members = [(node, n, n) for n in _bound_names(node)]
            if isinstance(node, ast.ClassDef):
                members += [(m, n, f"{node.name}.{n}")
                            for m in node.body for n in _bound_names(m)]
            defined += [(module, label, n, m) for m, n, label in members
                        if n.startswith("_") and not n.endswith("__")]
    return sorted((module, label) for module, label, n, node in defined
                  if read[n] == _reads(node)[n])


def undefined_exports(source: str) -> list:
    """Names in the module's __all__ that no top-level statement binds."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def test_scan_flags_unused_names():
    source = (
        "import os\nfrom dataclasses import dataclass, field\n"
        "@dataclass\nclass A:\n    x = os.sep\n"
    )
    assert unused_imports(source) == [(2, "field")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_private_scan_flags_unread_names():
    # A private method read only by itself, and a function that only calls
    # itself, are unread.
    sources = {
        "a": "_USED = 1\n_ORPHAN = 2\n__all__ = []\ndef _helper():\n    return _USED\n",
        "b": "from a import _helper\nclass _Gone:\n    pass\n",
        "c": (
            "class C:\n    _LIMIT = 3\n"
            "    def _used(self):\n        return self._LIMIT\n"
            "    def _orphan(self):\n        return self._orphan()\n"
            "    def run(self):\n        return self._used()\n"
            "def _recurse(n):\n    return _recurse(n - 1) if n else 0\n"
        ),
    }
    assert unread_private_names(sources) == [
        ("a", "_ORPHAN"), ("b", "_Gone"), ("c", "C._orphan"), ("c", "_recurse"),
    ]


def test_package_has_no_unread_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_export_scan_flags_undefined_names():
    source = (
        "import os\nfrom a import b as c\n__all__ = ['os', 'c', 'f', 'K', 'gone']\n"
        "def f():\n    pass\nK: int = 1\n"
    )
    assert undefined_exports(source) == ["gone"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_exports_only_defined_names(path):
    assert undefined_exports(path.read_text()) == []
