"""Every name that a module under `src/riskplan/` imports is used in it.

pyflakes is not a dependency, so the check reads each module with `ast`: a
name an import binds must also appear as a name elsewhere in the module.
`from __future__` imports are skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "riskplan"


def unused_imports(text: str) -> list[str]:
    """``line: name`` of each imported name that ``text`` never uses."""
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    text = ("from __future__ import annotations\n"
            "import os.path\nimport sys as system\nfrom . import a, b\n"
            "from dataclasses import field\n"
            "def f(x: a.T) -> None:\n    return os.path.join(x)\n")
    assert unused_imports(text) == ["3: system", "4: b", "5: field"]
