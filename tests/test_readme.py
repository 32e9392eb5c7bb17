"""The README's examples run as written.

Every ``python`` block runs, in order, in one namespace; every
``chebheat`` line of the command-line block runs through ``cli.main`` in
a scratch directory and must exit 0. A README that documents a command
or name the package no longer has fails here, and so does one that
quotes a limit of ``combine`` the code no longer has.
"""

import re
import shlex
from pathlib import Path

from chebheat import chebyshev, graphs, oracle
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


def test_quoted_limits_are_the_code_limits():
    text = " ".join(README.split())  # sentences wrap across lines
    in_flight = (re.findall(r"fewer than (\d+) rows wait", text)
                 + re.findall(r"at most (\d+) rows in flight", text))
    assert len(in_flight) == 2 and {int(v) for v in in_flight} == {chebyshev._IN_FLIGHT}
    limits = re.findall(r"fewer than (\d+) scales or fewer than (\d+) nodes", text)
    assert [(int(a), int(b)) for a, b in limits] == [
        (chebyshev._OVERLAP_MIN_SCALES, chebyshev._OVERLAP_MIN_LENGTH)]
    chunk = re.findall(r"holds one chunk of at most (\d+) rows of `n` entries", text)
    assert [int(v) for v in chunk] == [oracle._CHUNK]
    checked = re.findall(r"checks read the entries (\d+) at a time", text)
    assert [int(v) for v in checked] == [graphs._CHECK_CHUNK]
