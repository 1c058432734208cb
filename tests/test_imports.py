"""Static checks: every name a capsloc module imports is used in that module,
every module-level private name is read somewhere in the package, and every
name a module lists in __all__ is defined in it."""

import ast
import pathlib

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


def unread_private_names(sources: dict) -> list:
    """(module, name) of each module-level private name (leading `_`, not a
    dunder) that none of the sources reads. sources maps module -> text."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [(module, n) for n in names
                        if n.startswith("_") and not n.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted((m, n) for m, n in defined if n not in read)


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
    sources = {
        "a": "_USED = 1\n_ORPHAN = 2\n__all__ = []\ndef _helper():\n    return _USED\n",
        "b": "from a import _helper\nclass _Gone:\n    pass\n",
    }
    assert unread_private_names(sources) == [("a", "_ORPHAN"), ("b", "_Gone")]


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
