"""The README's code runs as written.

Its python block (the library quickstart) runs in a fresh interpreter,
and every ``fuse3d ...`` line of its command-line block parses with the
CLI's own parser, so a renamed or removed flag fails here.
"""

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fuse3d.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def _cli_lines():
    """The ``fuse3d`` commands of the README's command-line block, with
    ``\\`` continuations joined and ``#`` comments dropped."""
    block = next(b for b in _blocks("sh") if "fuse3d gen-scene" in b)
    lines = [line.split("#", 1)[0].rstrip()
             for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines if line.startswith("fuse3d ")]


def test_quickstart_runs(tmp_path):
    (code,) = _blocks("python")
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr[-2000:]


def test_cli_block_has_every_command():
    commands = {line.split()[1] for line in _cli_lines()}
    assert commands == {"gen-scene", "sample-study", "gradcheck", "project",
                        "roi-demo", "loss-eval"}


@pytest.mark.parametrize("line", _cli_lines())
def test_cli_line_parses(line):
    parser = _build_parser()
    # a flag must be written out in full, not as a prefix of one
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in sub.choices.values():
        command.allow_abbrev = False
    try:
        parser.parse_args(shlex.split(line)[1:])
    except SystemExit:
        pytest.fail(f"the CLI's parser rejects the README line {line!r}")
