"""Every IoU in the library goes through ``geometry._iou``.

``iou_bev``, ``iou_3d`` and greedy NMS all clip inter / union to 1, and
NMS keeps exactly what a one-pair ``iou_bev`` test would keep only while
they clip in the same way. So the clip, a call to ``min`` or
``np.minimum`` with a literal 1 or 1.0, may appear in ``src/fuse3d``
only inside ``geometry._iou``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "fuse3d").glob("*.py"))
# (file name, function name) of the one place the clip belongs
HOME = ("geometry.py", "_iou")


def _is_one(node):
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == 1)


def _is_min(func):
    if isinstance(func, ast.Name):
        return func.id == "min"
    return (isinstance(func, ast.Attribute) and func.attr == "minimum"
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy"))


def _clips(source, home=None):
    """``(line, call)`` of each clip to 1 in ``source`` outside the
    function named ``home``."""
    tree = ast.parse(source)
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == home:
            skip.update(id(n) for n in ast.walk(node))
    return [(node.lineno, ast.unparse(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in skip
            and _is_min(node.func) and any(map(_is_one, node.args))]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_only_iou_clips_to_one(path):
    home = HOME[1] if path.name == HOME[0] else None
    found = _clips(path.read_text(), home)
    assert found == [], f"{path.name} clips a ratio to 1 outside _iou: {found}"


def test_the_rule_has_its_home():
    source = (ROOT / "src" / "fuse3d" / HOME[0]).read_text()
    assert len(_clips(source)) == 1


def test_the_check_finds_every_spelling():
    # clips to other bounds, and minima of 1 with no call, are not IoUs
    source = ("import numpy as np\n"
              "def _iou(i, u):\n    return np.minimum(1.0, i / u)\n"
              "a = min(1.0, i / u)\nb = np.minimum(i / u, 1)\n"
              "c = numpy.minimum(1.0, r)\nd = min(2.0, r)\n"
              "e = np.minimum(u0 + 1, w - 1)\nf = np.maximum(1.0, r)\n")
    assert _clips(source, "_iou") == [(4, "min(1.0, i / u)"),
                                      (5, "np.minimum(i / u, 1)"),
                                      (6, "numpy.minimum(1.0, r)")]
    assert len(_clips(source)) == 4
