"""Which aockit modules import numpy, read from the source.

A sys.modules check cannot show this: aockit/__init__.py imports the
simulator, so numpy is loaded by any aockit import."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "aockit"


def _imports_numpy(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            return True
    return False


def test_only_the_simulator_imports_numpy():
    importers = {path.name for path in SRC.glob("*.py") if _imports_numpy(path)}
    assert importers == {"sim.py"}
