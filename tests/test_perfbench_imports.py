"""Every name the benchmark scripts import from fuse3d still exists.

``perfbench/selftest.py`` runs the benchmark itself but takes far longer
than the suite's budget; this parse-only check catches a removed or
renamed library name in well under a second.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))


def test_benchmark_imports_exist():
    imported, missing = [], []
    for path in SCRIPTS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "fuse3d"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported.append(alias.name)
                if not hasattr(module, alias.name):
                    missing.append(f"{path.name}: {node.module}.{alias.name}")
    assert imported, "no fuse3d imports found under perfbench/"
    assert missing == []
