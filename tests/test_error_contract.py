"""Every library error maps to one CLI exit code, decided by its type.

A ``ParseError`` is bad data (exit 2); any other library error is a
``ValueError``, a bad argument or setting (exit 1). No class may be
both, or ``main`` would have to pick one by the order of its clauses.
"""

import inspect

import pytest

from fuse3d import cli, errors

CONCRETE = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, errors.Fuse3DError)
            and cls is not errors.Fuse3DError]


def test_error_classes_found():
    assert {errors.ParseError, errors.TruncatedFile,
            errors.MissingKey, errors.DimensionMismatch} <= set(CONCRETE)


@pytest.mark.parametrize("cls", CONCRETE, ids=lambda cls: cls.__name__)
def test_each_error_is_data_or_usage_never_both(cls):
    assert issubclass(cls, errors.ParseError) != issubclass(cls, ValueError)


@pytest.mark.parametrize("cls", CONCRETE, ids=lambda cls: cls.__name__)
def test_main_exit_code_follows_the_type(monkeypatch, capsys, cls):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_gradcheck", fail)
    expected = 2 if issubclass(cls, errors.ParseError) else 1
    assert cli.main(["gradcheck"]) == expected
    prefix = "data error" if expected == 2 else "usage error"
    assert capsys.readouterr().err == f"{prefix}: boom\n"
