"""The README's examples run as written.

Every ``python`` block runs, in order, in one namespace; every
``chebheat`` line of the command-line block runs through ``cli.main`` in
a scratch directory and must exit 0. A README that documents a command
or name the package no longer has fails here.
"""

import re
import shlex
from pathlib import Path

from chebheat.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def test_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_command_lines_exit_zero(tmp_path, monkeypatch):
    section = README.split("## Command line", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, flags=re.M | re.S).group(1)
    commands = [line for line in block.splitlines() if line.startswith("chebheat ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
