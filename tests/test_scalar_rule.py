"""Scalar real arguments are checked by one rule.

``numerics._real`` checks that a scalar argument is a real number,
finite and inside its interval. Outside ``numerics.py`` no module of
``src/fuse3d`` calls ``math.isfinite`` or compares a value with
``math.inf`` or ``np.inf``: such a check would be a second, hand-written
copy of that rule. The allow-list holds the checks of values that are
not arguments.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fuse3d"
FILES = sorted(p for p in SRC.glob("*.py") if p.name != "numerics.py")

# (file, function) -> why its finiteness check is not an argument check
ALLOWED = {
    ("losses.py", "total_loss"):
        "tests the sum it computed for overflow; each term went through _real",
    ("cli.py", "_finite_float"):
        "the JSON parse hook refuses NaN and infinite literals as the "
        "fixture is read, before any value reaches a function",
}


def _is_isfinite(func):
    return (isinstance(func, ast.Name) and func.id == "isfinite") or (
        isinstance(func, ast.Attribute) and func.attr == "isfinite"
        and isinstance(func.value, ast.Name) and func.value.id == "math")


def _is_inf(node):
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    if isinstance(node, ast.Name):
        return node.id == "inf"
    if isinstance(node, ast.Attribute):
        return node.attr == "inf" and isinstance(node.value, ast.Name) \
            and node.value.id in ("math", "np", "numpy")
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float" and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).lstrip("+-").lower() in ("inf", "infinity"))


def _finiteness_checks(source):
    """``(line, enclosing function, spelling)`` of each call to
    ``math.isfinite`` and each comparison with an infinity in ``source``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _is_isfinite(child.func):
                found.append((child.lineno, func, ast.unparse(child.func)))
            elif isinstance(child, ast.Compare) and any(
                    map(_is_inf, [child.left, *child.comparators])):
                found.append((child.lineno, func, ast.unparse(child)))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_hand_written_real_check(path):
    found = [(line, func, text)
             for line, func, text in _finiteness_checks(path.read_text())
             if (path.name, func) not in ALLOWED]
    assert found == [], f"{path.name} checks reals by hand, not via _real: {found}"


@pytest.mark.parametrize("file, func", ALLOWED)
def test_each_allowed_check_still_exists(file, func):
    found = _finiteness_checks((SRC / file).read_text())
    assert any(f == func for _, f, _ in found), f"{file}: {func} is allowed but clean"


def test_the_check_finds_each_spelling():
    # array checks and infinities passed as values are not scalar checks
    source = (
        "import math\nimport numpy as np\nfrom math import inf, isfinite\n"
        "def f(x, a):\n"
        "    math.isfinite(x)\n"
        "    isfinite(x)\n"
        "    x < math.inf\n"
        "    0.0 < x < np.inf\n"
        "    x > -numpy.inf\n"
        "    x <= inf\n"
        "    x != float('-Infinity')\n"
        "    np.isfinite(a).all()\n"
        "    np.full(3, np.inf)\n"
        "    math.nextafter(x, -math.inf)\n"
        "    x < 1.0\n"
    )
    assert [(line, func) for line, func, _ in _finiteness_checks(source)] == [
        (5, "f"), (6, "f"), (7, "f"), (8, "f"), (9, "f"), (10, "f"), (11, "f")]
