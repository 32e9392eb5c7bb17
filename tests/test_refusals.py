"""Refusals that no other test reaches: each one's type and message, and for the CLI its exit code.

Each case is one bad input to one entry point. The message is matched
whole, so a change of text shows here as well as in the code.
"""

import math
import re

import numpy as np
import pytest

from chebheat.bessel import log_factorial
from chebheat.bounds import true_min_order
from chebheat.chebyshev import build_basis
from chebheat.cli import main
from chebheat.diffusion import make_plan, measure_errors
from chebheat.errors import ParseError
from chebheat.graphs import SparseSymMatrix, build_laplacian, erdos_renyi, load_graph, load_signal

P2 = build_laplacian([(0, 1)], 2)

DIFFUSE = ["diffuse", "--graph", "er:10:0.5:1", "--signal", "dirac:0"]


@pytest.mark.parametrize("argv, message", [
    (DIFFUSE + ["--scales", "lin:0:1:0"], "--scales grid count must be >= 1"),
    (DIFFUSE + ["--scales", "log:0:1:3"], "--scales log grid endpoints must be positive"),
    (DIFFUSE + ["--scales", "log:1:-1:3"], "--scales log grid endpoints must be positive"),
    (DIFFUSE + ["--scales", "1,x"],
     "--scales expects lin:a:b:m, log:a:b:m or a comma list, got '1,x'"),
    (["diffuse", "--graph", "er:10:0.5", "--signal", "dirac:0", "--scales", "1"],
     "--graph generator must be er:n:p:seed, got 'er:10:0.5'"),
])
def test_cli_exit_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("call, message", [
    (lambda: SparseSymMatrix(0, [0], [], []), "matrix dimension must be >= 1"),
    (lambda: SparseSymMatrix(2, [0, 0], [], []), "row_ptr must have length n + 1"),
    (lambda: SparseSymMatrix(1, [0, 1], [0, 0], [1.0]),
     "col_idx and values must be 1-d and equal length"),
    (lambda: P2.matvec(np.ones(3)), "expected vector of length 2, got shape (3,)"),
    (lambda: build_laplacian([(0, 1)], 2, kind="signless"), "unknown laplacian kind: 'signless'"),
    (lambda: erdos_renyi(0, 0.5, 1), "n must be >= 1"),
    (lambda: load_signal("dirac:1"), "signal spec 'dirac:1' needs the node count"),
    (lambda: make_plan(P2, [1.0, 0.0], [1.0], 1e-5, lambda_max=math.inf),
     "lambda_max must be finite and non-negative"),
    (lambda: make_plan(P2, [1.0, 0.0], [1.0], 1e-5, lambda_max=math.nan),
     "lambda_max must be finite and non-negative"),
    (lambda: true_min_order(P2, [1.0, 0.0], 1.0, 0.0), "tol must be positive"),
    (lambda: true_min_order(P2, [1.0, 0.0], 1.0, math.nan), "tol must be positive"),
    # exp(-800) underflows, and the signal has no component along the kernel
    (lambda: measure_errors(P2, [1.0, -1.0], 400.0, 3),
     "exact diffusion is zero; output-relative error undefined"),
    (lambda: log_factorial(-1), "k must be non-negative"),
    (lambda: build_basis(P2, [1.0, 0.0], -1), "order must be non-negative"),
])
def test_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is ValueError


@pytest.mark.parametrize("name, text, line_no, message", [
    ("g.mtx", "%%MatrixMarket matrix coordinate real symmetric\n3 3 1\n2 2 1.0\n", 3,
     "diagonal entries are not edges; supply an adjacency pattern"),
    ("g.mtx", "%%MatrixMarket matrix coordinate real symmetric\n% a comment, then nothing\n\n",
     1, "missing size line"),
    ("g.mtx", "%%MatrixMarket matrix array real symmetric\n3 3\n", 1,
     "expected '%%MatrixMarket matrix coordinate ...' header"),
    ("g.txt", "0 1\n2 -1\n", 2, "node indices must be non-negative"),
])
def test_graph_file_parse_error(tmp_path, name, text, line_no, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}:{line_no}: {message}')}$"):
        load_graph(str(path))
