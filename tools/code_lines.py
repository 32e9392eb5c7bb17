"""Count the code lines of each ``src/chebheat`` module.

A code line holds at least one token of code: blank lines, comment-only
lines and docstring lines do not count. A docstring is a string literal
that forms a statement of its own. Counting uses the standard library's
``tokenize`` only, so figures compare across versions of the package.

Run from the repository root::

    python tools/code_lines.py [FILE_OR_DIR ...]

With no argument it reads ``src/chebheat``. It prints one ``count path``
line per module and a ``total`` line.
"""

import sys
import tokenize
from pathlib import Path

# tokens that carry no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
# what may come right before a statement
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(readline) -> int:
    """Number of code lines in the source that ``readline`` yields as bytes."""
    tokens = [t for t in tokenize.tokenize(readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for k, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING and tokens[k + 1].type == tokenize.NEWLINE
                and (k == 0 or tokens[k - 1].type in _STATEMENT_START)):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    roots = [Path(a) for a in argv] or [Path("src/chebheat")]
    files = sorted(f for r in roots for f in ([r] if r.is_file() else r.rglob("*.py")))
    total = 0
    for path in files:
        with open(path, "rb") as fh:
            count = code_lines(fh.readline)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
