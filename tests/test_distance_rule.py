"""The sampler and its oracles square distances in one stated order.

``farthest_point_sampling``, ``aad`` and the oracles of
``tests/oracles.py`` all sum (dx*dx + dz*dz) + dy*dy with explicit
adds. A reduction through ``einsum`` or ``np.sum`` would hand that
order to numpy, whose summation order depends on the build and the
memory layout, so neither may be called in those two files.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = [ROOT / "src" / "fuse3d" / "sampling.py", ROOT / "tests" / "oracles.py"]


def _reductions(source):
    """``(line, name)`` of each call to einsum (in any spelling) or to
    ``np.sum``/``numpy.sum`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "einsum":
            found.append((node.lineno, "einsum"))
        elif isinstance(func, ast.Attribute) and (
                func.attr == "einsum"
                or (func.attr == "sum" and isinstance(func.value, ast.Name)
                    and func.value.id in ("np", "numpy"))):
            found.append((node.lineno, ast.unparse(func)))
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_numpy_reduction_sums_a_distance(path):
    found = _reductions(path.read_text())
    assert found == [], f"{path.name} sums through numpy reductions: {found}"


def test_the_check_finds_both_spellings():
    # a count through an array's own .sum() is not a distance sum
    source = ("import numpy as np\nfrom numpy import einsum\n"
              "a = np.einsum('ij,ij->i', d, d)\nb = einsum('i,i', d, d)\n"
              "c = np.sum(d ** 2, axis=1)\ne = (d > 0).sum()\n")
    assert _reductions(source) == [(3, "np.einsum"), (4, "einsum"),
                                   (5, "np.sum")]
