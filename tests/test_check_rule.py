"""Integer bounds and array shapes are checked by one rule each.

``numerics._count`` checks that an argument is an integer inside its
bounds, and ``numerics.checked_array`` that an array has its shape.
Outside ``numerics.py`` no function of ``src/fuse3d`` raises
``InvalidCount``, ``OutOfRange`` or ``DimensionMismatch`` itself: such
a raise would be a second, hand-written copy of one of those rules. The
allow-list holds the checks that neither rule can state.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fuse3d"
FILES = sorted(p for p in SRC.glob("*.py") if p.name != "numerics.py")
CHECK_ERRORS = ("InvalidCount", "OutOfRange", "DimensionMismatch")

# (file, function) -> why its check is not one of ``_count`` or ``checked_array``
ALLOWED = {
    ("sampling.py", "hybrid_sweep"):
        "bounds each oversample factor, a real, by N/n; _count takes integers",
    ("sampling.py", "aad"):
        "checks an index array: its rank, integer dtype, range and that its "
        "entries are distinct; _count takes one integer",
    ("fusion.py", "AAFParams.__post_init__"):
        "w_out needs at least c_img + c_pt rows, a lower bound on one axis; "
        "checked_array takes exact lengths",
    ("fusion.py", "relative_error"):
        "compares the shapes of two arrays with each other, not with a "
        "given shape",
    ("losses.py", "bin_cross_entropy"):
        "the logits must not be empty; checked_array takes any length for "
        "an axis label",
    ("losses.py", "encode_bins"):
        "bounds an offset derived from two reals, not an argument",
}


def _raised_name(exc):
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else None


def _hand_checks(source):
    """``(line, enclosing function, error)`` of each raise of one of
    ``CHECK_ERRORS`` in ``source``; a method is named ``Class.method``."""
    found = []

    def visit(node, scope, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and \
                    _raised_name(child.exc) in CHECK_ERRORS:
                found.append((child.lineno, func, _raised_name(child.exc)))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = ".".join(scope + [child.name])
                inner = not isinstance(child, ast.ClassDef)
                visit(child, scope + [child.name], name if inner else func)
            else:
                visit(child, scope, func)

    visit(ast.parse(source), [], None)
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_hand_written_bound_or_shape_check(path):
    found = [(line, func, error)
             for line, func, error in _hand_checks(path.read_text())
             if (path.name, func) not in ALLOWED]
    assert found == [], (f"{path.name} checks bounds or shapes by hand, "
                         f"not via _count or checked_array: {found}")


@pytest.mark.parametrize("file, func", ALLOWED)
def test_each_allowed_check_still_exists(file, func):
    found = _hand_checks((SRC / file).read_text())
    assert any(f == func for _, f, _ in found), f"{file}: {func} is allowed but clean"


def test_the_check_finds_each_spelling():
    source = (
        "from . import errors\n"
        "from .errors import DimensionMismatch, InvalidCount, OutOfRange\n"
        "def f(n):\n"
        "    raise InvalidCount(f'bad {n}')\n"
        "    raise OutOfRange\n"
        "    raise errors.DimensionMismatch('bad')\n"
        "    raise ValueError('not a check error')\n"
        "    raise\n"
        "class C:\n"
        "    def g(self):\n"
        "        def h():\n"
        "            raise OutOfRange('bad')\n"
        "        raise InvalidCount('bad')\n"
        "raise DimensionMismatch('at module level')\n"
    )
    assert [(line, func) for line, func, _ in _hand_checks(source)] == [
        (4, "f"), (5, "f"), (6, "f"), (12, "C.g.h"), (13, "C.g"), (14, None)]
