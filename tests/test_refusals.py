"""Refusals that no other test reaches: each one's type and message, and for the CLI its exit code.

Each case is one bad input to one entry point. The message is matched
whole, so a change of text shows here as well as in the code.
"""

import math
import re

import numpy as np
import pytest

import chebheat.cli
from chebheat.bessel import bessel_ie_scaled, log_factorial
from chebheat.bounds import BoundKind, log_bound_value, min_order, true_min_order
from chebheat.chebyshev import build_basis, cheb_coefficients
from chebheat.cli import bound_table_data, main
from chebheat.diffusion import make_plan, measure_errors
from chebheat.errors import ParseError
from chebheat.graphs import (SparseSymMatrix, build_laplacian, erdos_renyi, load_graph,
                             load_signal, save_edge_list)

from helpers import no_work

P2 = build_laplacian([(0, 1)], 2)
ER30 = build_laplacian(erdos_renyi(30, 0.2, seed=1), 30)
X30 = np.random.default_rng(3).standard_normal(30)

DIFFUSE = ["diffuse", "--graph", "er:10:0.5:1", "--signal", "dirac:0"]


def _whole(message) -> str:
    return f"^{re.escape(message)}$"


def _no_graph_or_work(monkeypatch):
    """:func:`helpers.no_work`, and no ER draw or Laplacian build in ``bound-table`` either."""
    no_work(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("a graph drawn or built before the refusal")

    monkeypatch.setattr(chebheat.cli, "erdos_renyi", refuse)
    monkeypatch.setattr(chebheat.cli, "build_laplacian", refuse)


@pytest.mark.parametrize("argv, message", [
    (DIFFUSE + ["--scales", "lin:0:1:0"], "--scales grid count must be an integer >= 1, got 0"),
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
    (lambda: SparseSymMatrix(2, [0, 0], [], []), "row_ptr must have length n + 1"),
    (lambda: SparseSymMatrix(1, [0, 1], [0, 0], [1.0]),
     "col_idx and values must be 1-d and equal length"),
    (lambda: P2.matvec(np.ones(3)), "expected vector of length 2, got shape (3,)"),
    (lambda: build_laplacian([(0, 1)], 2, kind="signless"), "unknown laplacian kind: 'signless'"),
    (lambda: load_signal("dirac:1"), "signal spec 'dirac:1' needs the node count"),
    (lambda: make_plan(P2, [1.0, 0.0], [1.0], 1e-5, lambda_max=math.inf),
     "lambda_max must be finite and non-negative"),
    (lambda: make_plan(P2, [1.0, 0.0], [1.0], 1e-5, lambda_max=math.nan),
     "lambda_max must be finite and non-negative"),
    # exp(-800) underflows, and the signal has no component along the kernel
    (lambda: measure_errors(P2, [1.0, -1.0], 400.0, 3),
     "exact diffusion is zero; output-relative error undefined"),
])
def test_value_error(call, message):
    with pytest.raises(ValueError, match=_whole(message)) as info:
        call()
    assert type(info.value) is ValueError


TOL_TAKERS = {
    "make_plan": lambda tol: make_plan(ER30, X30, [1.0], tol),
    "min_order": lambda tol: min_order(BoundKind.TAIL_GENERIC, 1.0, tol),
    "true_min_order": lambda tol: true_min_order(ER30, X30, 1.0, tol),
    "bound_table_data": lambda tol: bound_table_data(30, 0.2, 1, [1.0], tol, 0, True),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("entry", TOL_TAKERS)
def test_tol_is_refused_by_its_one_rule_before_any_work(monkeypatch, entry, tol):
    _no_graph_or_work(monkeypatch)
    with pytest.raises(ValueError, match=_whole(f"tol must be positive, got {tol}")) as info:
        TOL_TAKERS[entry](tol)
    assert type(info.value) is ValueError


# each count's name, the takers that name it, and what they refuse
COUNT_TAKERS = {
    "order": {"cheb_coefficients": lambda k: cheb_coefficients(1.0, k),
              "build_basis": lambda k: build_basis(ER30, X30, k),
              "log_bound_value": lambda k: log_bound_value(BoundKind.BASELINE_GENERIC, k, 1.0),
              "measure_errors": lambda k: measure_errors(ER30, X30, 1.0, k)},
    "k_max": {"bessel_ie_scaled": lambda k: bessel_ie_scaled(k, 1.0)},
    "k": {"log_factorial": log_factorial},
}


@pytest.mark.parametrize("value", [-1, 2.5, math.nan, math.inf])
@pytest.mark.parametrize("name, entry", [(name, entry) for name, takers in COUNT_TAKERS.items()
                                         for entry in takers])
def test_order_counts_are_refused_by_the_count_rule_before_any_work(monkeypatch, name, entry,
                                                                    value):
    # an infinite order once escaped as OverflowError, a NaN one as "cannot
    # convert float NaN", and 2.5 ran as 2; measure_errors refused -1 after
    # an eigh and the power iteration
    _no_graph_or_work(monkeypatch)
    with pytest.raises(ValueError,
                       match=_whole(f"{name} must be an integer >= 0, got {value}")) as info:
        COUNT_TAKERS[name][entry](value)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("n", [0, 2.7, math.inf])
def test_node_counts_are_refused_by_the_count_rule(monkeypatch, tmp_path, n):
    path = tmp_path / "g.txt"
    takers = {"erdos_renyi": lambda: erdos_renyi(n, 0.5, 1),
              "build_laplacian": lambda: build_laplacian([], n),
              "SparseSymMatrix": lambda: SparseSymMatrix(n, [0], [], []),
              "save_edge_list": lambda: save_edge_list(path, [], n),
              "load_signal": lambda: load_signal("normal:1", n),
              "bound_table_data": lambda: bound_table_data(n, 0.2, 1, [1.0], 1e-5, 0, False)}
    _no_graph_or_work(monkeypatch)
    for entry, take in takers.items():
        with pytest.raises(ValueError, match=_whole(f"n must be an integer >= 1, got {n}")):
            take()
    assert not path.exists()


BOUND_TABLE = ["bound-table", "--n", "100", "--p", "0.1", "--scales", "1"]


@pytest.mark.parametrize("argv, message", [
    # each once came after an ER draw and the power iteration, --true --n 600
    # after every order search too
    (BOUND_TABLE + ["--tol", "0"], "tol must be positive, got 0.0"),
    (BOUND_TABLE + ["--tol", "-1"], "tol must be positive, got -1.0"),
    (BOUND_TABLE + ["--tol", "nan"], "tol must be positive, got nan"),
    (BOUND_TABLE + ["--trials", "0"], "trials must be an integer >= 1, got 0"),
    (BOUND_TABLE + ["--n", "0"], "n must be an integer >= 1, got 0"),
    (["bound-table", "--true", "--n", "600"], "dense oracle is limited to n <= 500, got 600"),
    (BOUND_TABLE + ["--scales", "lin:0:1:0"], "--scales grid count must be an integer >= 1, got 0"),
])
def test_bound_table_exit_2_before_any_work(capsys, monkeypatch, argv, message):
    _no_graph_or_work(monkeypatch)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


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
