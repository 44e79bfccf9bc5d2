"""Every module of the package, and every test, tool and benchmark script,
uses each name it imports.

No linter is a dependency, so the check parses the source with `ast`.
The package's `__init__.py` is exempt: its imports are the re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "midasll1"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """`line N: name` for each name a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .model import LL1Factors, objective\n"
        "from . import config as cfgmod\n"
        "def f(x: LL1Factors):\n"
        "    return os.path.join(cfgmod.NAME, x)\n"
    )
    assert unused_imports(source) == ["line 2: np", "line 4: objective"]
    assert len(MODULES) >= 10, f"modules missing under {PACKAGE}"
    assert len(SCRIPTS) >= 20, f"test, tool and benchmark scripts missing under {ROOT}"


@pytest.mark.parametrize(
    "path", [*MODULES, *SCRIPTS],
    ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}")
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []
