"""The code-line counter in ``tools/`` skips blank, comment and docstring lines."""

import importlib.util
import io
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line


def f(x):
    """One-line docstring."""
    # a comment line
    y = ("a string that is no docstring"
         + str(x))
    return math.floor(
        y)
'''


def test_counts_only_code_lines():
    # import, def, the two lines of y and the two of the return
    assert code_lines.code_lines(io.BytesIO(SOURCE.encode()).readline) == 6


def test_prints_each_file_and_the_total(capsys):
    assert code_lines.main([str(_PATH)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].split() == [out[0].split()[0], "total"]
