"""Every name a package module imports is read in that module, and every
private module-level name is read somewhere in the package.

No linter ships with the test dependencies, so these are the checks that
keep dead imports and left-behind helpers out: ``ast`` scans of the
``src/nofkit`` modules. An import counts as read when it appears as a Name
node anywhere in its module, or when the module's ``__all__`` re-exports it;
``annotations`` (the ``from __future__`` switch) is read by the compiler. A
private (leading underscore) module-level function, class or assignment
counts as read when some package module loads it by name, reads it as an
attribute, or imports it.

The benchmark's traced run wraps package functions by name, so every
(module, attribute) its span table (``perfbench/spans.py``: FUNCTIONS,
SITES and BUILDERS) names must resolve in the package. That table is read
with ``ast``, never imported or edited.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nofkit"
SPANS = ROOT / "perfbench" / "spans.py"


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    exported = {"annotations"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


def test_scan_flags_an_unread_import_and_spares_read_or_exported_ones():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from math import comb, sqrt\n"
        "from .core import run\n"
        "__all__ = ['run']\n"
        "x = np.zeros(comb(4, 2)) if os.path else None\n"
    )
    assert unread_imports(source) == ["sqrt"]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(module):
    assert unread_imports(module.read_text()) == []


def private_definitions(source: str) -> set[str]:
    """Module-level functions, classes and assignment targets whose names
    start with one underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def names_read(source: str) -> set[str]:
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def unread_privates(sources: list[str]) -> list[str]:
    defined = set().union(*(private_definitions(s) for s in sources))
    read = set().union(*(names_read(s) for s in sources))
    return sorted(defined - read)


def test_private_scan_flags_a_helper_nothing_reads():
    defining = (
        "_CAP = 3\n"
        "_unused: int = 4\n"
        "def _used(): return _CAP\n"
        "def _dead(): pass\n"
        "class _Gone: pass\n"
        "def _imported(): pass\n"
        "_attr = 1\n"
        "def __getattr__(name): pass\n"
        "def public(): return _used()\n"
    )
    reading = "from .a import _imported\nimport a\nx = a._attr\n"
    assert unread_privates([defining, reading]) == ["_Gone", "_dead", "_unused"]


def test_every_private_definition_is_read_in_the_package():
    sources = [module.read_text() for module in sorted(PACKAGE.glob("*.py"))]
    assert unread_privates(sources) == []


def traced_attributes(source: str) -> list[tuple[str, str]]:
    """(module, attribute) of every FUNCTIONS, SITES and BUILDERS entry of a
    span table; BUILDERS are the protocol factories, looked up in
    ``nofkit.protocols``."""
    tables = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "SITES", "BUILDERS"):
                tables[target.id] = ast.literal_eval(node.value)
    pairs = [(module, attr) for _, module, attr in tables["FUNCTIONS"] + tables["SITES"]]
    return pairs + [("nofkit.protocols", attr) for attr in tables["BUILDERS"]]


def unresolved(pairs: list[tuple[str, str]]) -> list[str]:
    """The dotted names among ``pairs`` whose attribute path does not resolve."""
    missing = []
    for module, attr in pairs:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{module}.{attr}")
                break
    return missing


def test_resolution_names_each_missing_attribute():
    pairs = [("nofkit.core", "run"), ("nofkit.core", "no_such_function"),
             ("nofkit.tape", "RandomTape.sub"), ("nofkit.tape", "RandomTape.nope")]
    assert unresolved(pairs) == ["nofkit.core.no_such_function", "nofkit.tape.RandomTape.nope"]


def test_every_traced_attribute_resolves_in_the_package():
    pairs = traced_attributes(SPANS.read_text())
    assert len(pairs) > 40
    assert unresolved(pairs) == []
