"""Static checks: every name a capsloc module imports is used in that module,
every private name a module or its classes define is read somewhere in the
package, every name a module lists in __all__ is defined in it, and every
such name is read by a pipeline (the package, scripts/ or perfbench/) or
says in its docstring that it is a test oracle."""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "capsloc"
# The code that runs the pipelines: what reads an export outside tests.
PIPELINE = [SRC, ROOT / "scripts", ROOT / "perfbench"]


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


def unread_exports(sources: dict) -> list:
    """(module, name) of each name in a module's __all__ that none of the
    sources reads outside its own definition and the bodies of top-level
    test oracles, unless the def or class docstring says it is a test
    oracle itself. sources maps module -> text."""
    exported, read = [], Counter()
    for module, source in sources.items():
        tree = ast.parse(source)
        read += _reads(tree)
        for node in tree.body:
            if _is_test_oracle(node):
                read -= _reads(node)
        nodes = {n: node for node in tree.body for n in _bound_names(node)}
        if "__all__" in nodes:
            exported += [(module, n, nodes[n])
                         for n in ast.literal_eval(nodes["__all__"].value)]
    return sorted((module, n) for module, n, node in exported
                  if read[n] == _reads(node)[n] and not _is_test_oracle(node))


def _is_test_oracle(node) -> bool:
    """Whether a def or class docstring says it is a test oracle."""
    if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return False
    return "test oracle" in " ".join((ast.get_docstring(node) or "").split())


def test_export_scan_flags_names_no_pipeline_reads():
    # An export read only by itself, by nobody, or only inside a test
    # oracle's body is flagged; one read by another module or by a sibling,
    # or one whose docstring calls it a test oracle, is not.
    sources = {
        "a": (
            "__all__ = ['used', 'orphan', 'oracle', 'recurse', 'K', 'Z', 'helper']\n"
            "K = 1\nZ = 2\n"
            "def used():\n    return K\n"
            "def orphan():\n    pass\n"
            "def oracle():\n    \"\"\"A test\n    oracle for used.\"\"\"\n"
            "    return helper()\n"
            "def helper():\n    pass\n"
            "def recurse(n):\n    return recurse(n - 1) if n else 0\n"
        ),
        "b": "import a\nx = a.used()\n",
    }
    assert unread_exports(sources) == [
        ("a", "Z"), ("a", "helper"), ("a", "orphan"), ("a", "recurse"),
    ]


def test_every_export_is_read_by_a_pipeline_or_is_a_test_oracle():
    sources = {str(p.relative_to(ROOT)): p.read_text()
               for d in PIPELINE for p in sorted(d.glob("*.py"))}
    assert unread_exports(sources) == []
