"""Every name a package module imports is read in that module.

No linter ships with the test dependencies, so this is the check that keeps
dead imports out: an ``ast`` scan of each ``src/nofkit`` module. A name
counts as read when it appears as a Name node anywhere in the module, or
when the module's ``__all__`` re-exports it; ``annotations`` (the
``from __future__`` switch) is read by the compiler.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nofkit"


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
