"""Every RunConfig key is read by some code in the library.

A key counts as read when an attribute of that name is loaded somewhere
in ``src/fuse3d/*.py`` outside the config file parser. Reads inside a
``RunConfig`` method count only when that method is itself called from
outside the class, so the range checks in ``__post_init__`` do not
count. The check goes by
attribute name, so a same-named attribute of another class also counts:
it can miss an unread key, but never flags a read one.
"""

import ast
import dataclasses
from pathlib import Path

from fuse3d import RunConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "fuse3d"
NOT_A_READ = {"parse_config"}


def _loads(node):
    return {n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _reads():
    reads, methods = set(), {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "RunConfig":
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods[item.name] = _loads(item)
            elif not (isinstance(node, ast.FunctionDef)
                      and node.name in NOT_A_READ):
                reads |= _loads(node)
    for name, loads in methods.items():
        if name in reads:
            reads |= loads
    return reads


def test_every_run_config_key_is_read():
    reads = _reads()
    unread = [f.name for f in dataclasses.fields(RunConfig)
              if f.name not in reads]
    assert unread == [], f"RunConfig keys that no code reads: {unread}"
