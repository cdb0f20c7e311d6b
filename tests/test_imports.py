"""Every name a module of the package imports is used in that module.

A name kept alive only so that outside code can patch it looks dead to a
reader; this test makes such a name fail openly instead.
"""

import ast
from pathlib import Path

import pytest

import phasebound

MODULES = sorted(p for p in Path(phasebound.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import math\nimport os\nos.sep\n") == ["math"]
    assert _unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
