"""Print one sha256 per diffusion and bound-table case, to check that a change keeps the same bits.

Each case is a graph, a signal and a kind. Its digest covers, in order,
every output and the ``repr`` of every report of one
``expm_multiscale`` run at 12 scales (0 and 11 from 1e-2 to 100, tol
1e-8) and of ``expm_multiply`` at ``tau`` 0 and 2; a call that raises
contributes its error's type and message instead. The graphs are a
64x64 lattice (4096 nodes, so a run of 8 scales or more adds on a helper
thread where two CPUs are free) and ``er:300:0.03:1``, combinatorial and
normalized. The signals are a Dirac, a standard normal, an alternating
+-1 that sums to exactly zero, and one that holds ``-0.0`` beside
positive entries. Every kind runs, ``auto`` first.

A bound-table case digests every array ``bound_table_data`` returns
(scales, effective scales, each kind's orders, the measured orders and
the energy ratios), or its error's type and message, at the 25 scales
of ``log:1e-2:1e2:25``, with 0 in front for the ``n=60`` case. The cases
are the benchmark's first job (``n=100``, ``p=0.1``, seed 1000, 4
trials), ``n=60``, ``p=0.2`` at tol 1e-10, and seed 1351, whose power
estimate lies below the top eigenvalue, each with the measured orders
(``with_true=True``, rescaled by the dense spectrum), and the
benchmark's first job again without them (``with_true=False``, the
``-no-true`` case), rescaled by the power estimate.

A CSR case digests the bytes of ``row_ptr``, ``col_idx`` and ``values``
of one ``build_laplacian`` call, or its error's type and message. The
graphs are the file ``chebheat gen-graph --n 20000 --p 0.001 --seed 1``
writes, a shuffled copy of its edges with every other one reversed and
a tenth of them repeated at weight 0.5, the 200x200 lattice in the
(hi, lo) orientation of the benchmark's Matrix Market file (its operator
keeps padded planes), the path 0-1-2-3 at weights 1e-200, 1e-160 and
1e200 (normalized), two edges of weight 1e308 at one node, and on
70000 nodes, past 16-bit node numbers, a path through every node with
40000 random edges, in (lo, hi) order once each and as drawn (both
orientations, some repeated). Each CSR case runs again with the
private ``graphs._INDEX32_MAX`` patched to 0, which makes every slot,
mirror and entry row int64; a checkout without it ignores the patch.

A Bessel case digests ``bessel_ie_scaled(k_max, tau)`` at one ``k_max``
of 0, 1, 64, 128, 256, 1024 and ``ORDER_CAP``, over scales on the power
series path, on both sides of the switch at 1, where the backward
recurrence rescales (small scales at long lengths), and up to 2e4. A
``min_order`` case digests, for one kind, its order and the
``log_bound_value`` there, or the error's type and message, over a grid
of effective scales (0 and the least subnormal to 1e5), tolerances
(1e-14 to 0.1) and energy ratios (none, 1, 200 and infinite).

The spectral cases run on fresh copies of the diffusion graphs, so
that no value kept on an operator object carries over. A ``lambda``
case digests, for one graph, the power estimate and its matvecs, then
the same again at 0 matvecs, ``estimate_lambda_max``, the certified
ceiling, the free floor, and the value and matvecs of a given
``lambda_max`` at twice the floor, at the floor and below it, at 0 and
at NaN, or each error's type and message. A ``measure_errors`` case
digests both errors over scales (0, 0.1, 1 and 10) and orders (0, 3, 20
and 60), with no ``lambda_max`` and with the ceiling given, for the
Dirac and the normal signal. A ``true_min_order`` case digests, for the
same two signals, the order or the error at scales 0, 0.1, 1, 10 and 50
and tolerances 1e-5 and 1e-10, with no ``lambda_max``, with the ceiling
and with ``1.001`` times the floor, which lies below the top
eigenvalue, so no order meets the tolerance. An ``exact_diffusion``
case digests the bytes of every signal at scales 0, 0.5, 2 and 20. The
lattice has too many nodes for the dense oracle, so only its ``lambda``
case runs. The private rules are read from ``chebheat.oracle``.

A ``refusals`` line gives, in place of a digest, the type and message
of one bad input to one entry point that takes a signal, a scale, a
``tol`` or a count, or ``returned`` when the call raises nothing. The
inputs are a signal with a NaN, a signal one entry short, and a scale
of -1, NaN and inf, on ``er:30:0.2:1``. The entry points are
``expm_multiply``, ``expm_multiscale``, ``make_plan``,
``energy_ratio``, ``exact_diffusion``, ``measure_errors``,
``true_min_order``, ``build_basis`` (every row drawn) and
``load_signal`` (a file), and ``diffuse`` and ``bound-table`` through
``cli.main``, whose exit code and error line it gives. Then a ``tol``
of 0, -1 and NaN to ``min_order``, ``true_min_order`` and ``make_plan``;
an order of -1, 2.5, NaN and inf to ``cheb_coefficients``,
``build_basis``, ``bessel_ie_scaled`` (as ``k_max``), ``log_factorial``
(as ``k``), ``log_bound_value`` and ``measure_errors``; a node count
of 0, 2.7 and inf to ``build_laplacian``, ``erdos_renyi``,
``save_edge_list`` (whether it wrote the file, too) and
``SparseSymMatrix``; ``bound-table`` at ``--tol`` 0, -1 and NaN,
``--trials 0``, ``--n 0``, ``--scales lin:0:1:0`` and ``--true --n
600``; ``diffuse`` at ``--lambda-max -1`` and at ``--scales lin:1:inf:2``;
and ``save_edge_list`` with an endpoint of ``2**53 + 1`` on ``2**53 +
2`` nodes (whether it wrote the file, too). An ``ArithmeticError`` is
given as a refusal too, so a checkout that lets an ``OverflowError``
escape prints it. The ``diffuse`` lines run with numpy's warnings
turned into errors, so a warning shows as a refusal of its own.

Run from the repository root of any checkout, which it imports from::

    python tools/bits_digest.py > digest.txt

and compare two checkouts with ``diff``. It prints ``case sha256`` and
``refusals/... type: message`` lines.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chebheat import (BoundKind, NumericalError, build_laplacian, erdos_renyi,  # noqa: E402
                      expm_multiply, expm_multiscale, load_graph, measure_errors,
                      save_edge_list, true_min_order)
from chebheat import oracle  # noqa: E402
from chebheat.bessel import ORDER_CAP, bessel_ie_scaled, log_factorial  # noqa: E402
from chebheat.bounds import energy_ratio, log_bound_value, min_order  # noqa: E402
from chebheat.chebyshev import build_basis, cheb_coefficients  # noqa: E402
from chebheat.cli import bound_table_data, main as cli_main  # noqa: E402
from chebheat.diffusion import estimate_lambda_max, make_plan  # noqa: E402
from chebheat.graphs import SparseSymMatrix, load_signal  # noqa: E402
from chebheat.oracle import DENSE_CAP, exact_diffusion  # noqa: E402

SCALES = [0.0] + [float(t) for t in np.logspace(-2.0, 2.0, 11)]
SINGLE = (0.0, 2.0)
TOL = 1e-8
KINDS = ["auto"] + [kind.value for kind in BoundKind]
TABLE_SCALES = [float(t) for t in np.logspace(-2.0, 2.0, 25)]
# case: n, p, trials, scales, tol, seed, with_true
TABLES = {"bound-table/n100-p0.1-seed1000": (100, 0.1, 4, TABLE_SCALES, 1e-5, 1000, True),
          "bound-table/n60-p0.2-tol1e-10": (60, 0.2, 3, [0.0] + TABLE_SCALES, 1e-10, 3, True),
          "bound-table/n100-p0.1-seed1351": (100, 0.1, 1, TABLE_SCALES, 1e-5, 1351, True),
          "bound-table/n100-p0.1-seed1000-no-true":
              (100, 0.1, 4, TABLE_SCALES, 1e-5, 1000, False)}

BESSEL_ORDERS = [0, 1, 64, 128, 256, 1024, ORDER_CAP]
BESSEL_SCALES = ([0.0, 5e-324, 1e-300, 1e-6, 0.01, 0.5, float(np.nextafter(1.0, 0.0)), 1.0,
                  float(np.nextafter(1.0, 2.0)), 1.5, 3.0, 10.0, 50.0, 100.0, 700.0, 1000.0,
                  5000.0, 2e4])
ORDER_SCALES = [0.0, 5e-324, 1e-3, 0.1, 1.0, 5.0, 20.0, 100.0, 1000.0, 5000.0, 1e5]
ORDER_TOLS = [1e-14, 1e-8, 1e-5, 0.1]
ORDER_RATIOS = [None, 1.0, 200.0, float("inf")]
MEASURE_SCALES = [0.0, 0.1, 1.0, 10.0]
MEASURE_ORDERS = [0, 3, 20, 60]
TRUE_SCALES = [0.0, 0.1, 1.0, 10.0, 50.0]
TRUE_TOLS = [1e-5, 1e-10]
EXACT_SCALES = [0.0, 0.5, 2.0, 20.0]
REFUSED_SCALES = ["-1", "nan", "inf"]
REFUSED_TOLS = ["0", "-1", "nan"]
REFUSED_ORDERS = [-1, 2.5, float("nan"), float("inf")]
REFUSED_NODES = [0, 2.7, float("inf")]


def _lattice(side):
    idx = np.arange(side * side).reshape(side, side)
    edges = np.concatenate([np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1),
                            np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)])
    return edges, side * side


def _graphs():
    lattice, n = _lattice(64)
    er = erdos_renyi(300, 0.03, seed=1)
    return {"lattice-64x64": build_laplacian(lattice, n),
            "er-300-combinatorial": build_laplacian(er, 300),
            "er-300-normalized": build_laplacian(er, 300, kind="normalized")}


def _signals(n):
    negative_zero = np.zeros(n)
    negative_zero[::5] = -0.0
    negative_zero[1::5] = 1.0
    negative_zero[3::7] = 0.25
    return {"dirac": np.eye(1, n, n // 3)[0],
            "normal": np.random.default_rng(7).standard_normal(n),
            "zero-sum": np.where(np.arange(n) % 2 == 0, 1.0, -1.0),
            "negative-zero": negative_zero}


def _digest(op, x, kind) -> str:
    h = hashlib.sha256()
    calls = [lambda: expm_multiscale(op, x, SCALES, tol=TOL, kind=kind)]
    calls += [lambda tau=tau: [expm_multiply(op, x, tau, tol=TOL, kind=kind)] for tau in SINGLE]
    for call in calls:
        try:
            for y, rep in call():
                h.update(y.tobytes())
                h.update(repr(rep).encode())
        except (ValueError, NumericalError) as exc:
            h.update(f"{type(exc).__name__}: {exc}".encode())
    return h.hexdigest()


def _table_digest(n, p, trials, taus, tol, seed, with_true) -> str:
    h = hashlib.sha256()
    try:
        data = bound_table_data(n, p, trials, taus, tol, seed, with_true)
    except (ValueError, NumericalError) as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
    else:
        measured = [data["true"]] if with_true else []
        for a in ([np.array(data["taus"]), data["tau_effs"]] + list(data["orders"].values())
                  + measured + [data["ratios"]]):
            h.update(a.tobytes())
    return h.hexdigest()


def _bessel_digest(k_max) -> str:
    h = hashlib.sha256()
    for tau in BESSEL_SCALES:
        h.update(bessel_ie_scaled(k_max, tau).tobytes())
    return h.hexdigest()


def _min_order_digest(kind) -> str:
    h = hashlib.sha256()
    for tau_eff in ORDER_SCALES:
        for tol in ORDER_TOLS:
            for ratio in ORDER_RATIOS:
                try:
                    order = min_order(kind, tau_eff, tol, ratio=ratio)
                    value = log_bound_value(kind, order, tau_eff, ratio=ratio)
                except (ValueError, NumericalError) as exc:
                    h.update(f"{type(exc).__name__}: {exc}".encode())
                else:
                    h.update(f"{order} {value.hex()}".encode())
    return h.hexdigest()


def _update(h, call):
    """Add the ``repr`` of ``call()``, exact for floats, to ``h``, or its error's type and message."""
    try:
        value = call()
    except (ValueError, NumericalError) as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
    else:
        h.update(repr(value).encode())


def _lambda_digest(op) -> str:
    h = hashlib.sha256()
    resolve = oracle._resolve_lambda
    floor = oracle._lambda_floor(op)
    for call in (lambda: resolve(op, None), lambda: resolve(op, None),
                 lambda: estimate_lambda_max(op), lambda: oracle._spectral_ceiling(op),
                 lambda: floor):
        _update(h, call)
    for given in (2.0 * floor, floor, 0.5 * floor, 0.0, float("nan")):
        _update(h, lambda: resolve(op, given))
    return h.hexdigest()


def _measure_digest(op, x) -> str:
    h = hashlib.sha256()
    ceiling = oracle._spectral_ceiling(op)
    for lam in (None, ceiling):
        for tau in MEASURE_SCALES:
            for order in MEASURE_ORDERS:
                _update(h, lambda: measure_errors(op, x, tau, order, lambda_max=lam))
    return h.hexdigest()


def _true_digest(op, x) -> str:
    h = hashlib.sha256()
    for lam in (None, oracle._spectral_ceiling(op), 1.001 * oracle._lambda_floor(op)):
        for tau in TRUE_SCALES:
            for tol in TRUE_TOLS:
                _update(h, lambda: true_min_order(op, x, tau, tol, lambda_max=lam))
    return h.hexdigest()


def _exact_digest(op) -> str:
    h = hashlib.sha256()
    for x in _signals(op.n).values():
        for tau in EXACT_SCALES:
            h.update(exact_diffusion(op, x, tau).tobytes())
    return h.hexdigest()


def _csr_graphs():
    """Each CSR case's edges, node count and kinds."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "er.txt")
        cli_main(["gen-graph", "--n", "20000", "--p", "0.001", "--seed", "1", "--out", path])
        er, n = load_graph(path)
    rng = np.random.default_rng(5)
    shuffled = er[rng.permutation(len(er))]
    shuffled[::2, :2] = shuffled[::2, 1::-1]
    repeated = shuffled[:len(er) // 10] * [1.0, 1.0, 0.5]
    lattice, side_n = _lattice(200)
    both = ("combinatorial", "normalized")
    graphs = {"er-20000": (er, n, both),
              "er-20000-shuffled": (np.concatenate([shuffled, repeated]), n, both),
              "lattice-200x200": (lattice[:, ::-1], side_n, ("combinatorial",))}
    for w in (1e-200, 1e-160, 1e200):
        graphs[f"path-4-w{w:g}"] = ([(0, 1, w), (1, 2, w), (2, 3, w)], 4, ("normalized",))
    graphs["degree-overflow"] = ([(0, 1, 1e308), (0, 2, 1e308)], 3, both)
    n = 70000
    path = np.column_stack([np.arange(n - 1), np.arange(1, n), np.ones(n - 1)])
    drawn = rng.integers(0, n, size=(40000, 2)).astype(np.float64)
    drawn = drawn[drawn[:, 0] != drawn[:, 1]]
    drawn = np.column_stack([drawn, rng.uniform(0.5, 2.0, len(drawn))])
    drawn = np.concatenate([path, drawn, drawn[::9, [1, 0, 2]]])
    lo, hi = np.minimum(drawn[:, 0], drawn[:, 1]), np.maximum(drawn[:, 0], drawn[:, 1])
    _, first = np.unique(lo * n + hi, return_index=True)  # sorted by (lo, hi)
    canonical = np.column_stack([lo[first], hi[first], drawn[first, 2]])
    graphs[f"random-{n}"] = (canonical, n, both)
    graphs[f"random-{n}-drawn"] = (drawn, n, both)
    return graphs


def _csr_digest(edges, n, kind) -> str:
    h = hashlib.sha256()
    try:
        op = build_laplacian(edges, n, kind=kind)
    except ValueError as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
    else:
        for a in (op.row_ptr, op.col_idx, op.values):
            h.update(a.tobytes())
    return h.hexdigest()


def _refusal(call) -> str:
    """The type and message of the error ``call()`` raises, or ``returned``."""
    try:
        call()
    except (ValueError, ArithmeticError, NumericalError) as exc:  # OverflowError too
        return f"{type(exc).__name__}: {exc}"
    return "returned"


def _cli_refusal(argv) -> str:
    """The exit code and error line of ``cli.main(argv)``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return f"exit {code}: {err.getvalue().strip()}"


def _refusals(tmp):
    """Each ``refusals`` case and its outcome, in order."""
    n = 30
    op = build_laplacian(erdos_renyi(n, 0.2, seed=1), n)
    x = np.random.default_rng(3).standard_normal(n)
    nan = x.copy()
    nan[7] = np.nan
    signals = {"nan-signal": nan, "short-signal": x[:-1]}
    files = {}
    for name, values in signals.items():
        files[name] = str(Path(tmp) / f"{name}.txt")
        Path(files[name]).write_text("".join(f"{float(v)!r}\n" for v in values), encoding="utf-8")
    by_signal = {"expm_multiply": lambda s: expm_multiply(op, s, 1.0, tol=TOL),
                 "expm_multiscale": lambda s: expm_multiscale(op, s, [1.0], tol=TOL),
                 "make_plan": lambda s: make_plan(op, s, [1.0], TOL),
                 "energy_ratio": lambda s: energy_ratio(s, op),
                 "exact_diffusion": lambda s: exact_diffusion(op, s, 1.0),
                 "measure_errors": lambda s: measure_errors(op, s, 1.0, 5),
                 "true_min_order": lambda s: true_min_order(op, s, 1.0, 1e-5),
                 "build_basis": lambda s: list(build_basis(op, s, 3))}
    by_scale = {"expm_multiply": lambda t: expm_multiply(op, x, t, tol=TOL),
                "expm_multiscale": lambda t: expm_multiscale(op, x, [1.0, t], tol=TOL),
                "make_plan": lambda t: make_plan(op, x, [1.0, t], TOL),
                "exact_diffusion": lambda t: exact_diffusion(op, x, t),
                "measure_errors": lambda t: measure_errors(op, x, t, 5),
                "true_min_order": lambda t: true_min_order(op, x, t, 1e-5)}
    for entry, call in by_signal.items():
        for name, s in signals.items():
            yield f"{entry}/{name}", _refusal(lambda: call(s))
    for entry, call in by_scale.items():
        for tau in REFUSED_SCALES:
            yield f"{entry}/tau={tau}", _refusal(lambda: call(float(tau)))
    for name, path in files.items():
        yield f"load_signal/{name}", _refusal(lambda: load_signal(path, n))
    diffuse = ["diffuse", "--graph", f"er:{n}:0.2:1", "--tol", "1e-8"]
    for name, path in files.items():
        yield f"cli-diffuse/{name}", _cli_refusal(diffuse + ["--signal", path, "--scales", "1"])
    for tau in REFUSED_SCALES:
        argv = diffuse + ["--signal", "normal:3", "--scales", f"1,{tau}"]
        yield f"cli-diffuse/tau={tau}", _cli_refusal(argv)
    for tau in REFUSED_SCALES:
        argv = ["bound-table", "--n", str(n), "--p", "0.2", "--trials", "1", "--scales", f"1,{tau}"]
        yield f"cli-bound-table/tau={tau}", _cli_refusal(argv)
    by_tol = {"min_order": lambda tol: min_order(BoundKind.TAIL_GENERIC, 1.0, tol),
              "true_min_order": lambda tol: true_min_order(op, x, 1.0, tol),
              "make_plan": lambda tol: make_plan(op, x, [1.0], tol)}
    for entry, call in by_tol.items():
        for tol in REFUSED_TOLS:
            yield f"{entry}/tol={tol}", _refusal(lambda: call(float(tol)))
    by_order = {"cheb_coefficients": lambda k: cheb_coefficients(1.0, k),
                "build_basis": lambda k: list(build_basis(op, x, k)),
                "bessel_ie_scaled": lambda k: bessel_ie_scaled(k, 1.0),
                "log_factorial": log_factorial,
                "log_bound_value": lambda k: log_bound_value(BoundKind.BASELINE_GENERIC, k, 1.0),
                "measure_errors": lambda k: measure_errors(op, x, 1.0, k)}
    for entry, call in by_order.items():
        for k in REFUSED_ORDERS:
            yield f"{entry}/order={k}", _refusal(lambda: call(k))
    path = Path(tmp) / "edges.txt"
    by_nodes = {"build_laplacian": lambda m: build_laplacian([(0, 1)], m),
                "erdos_renyi": lambda m: erdos_renyi(m, 0.5, 1),
                "save_edge_list": lambda m: save_edge_list(path, [(0, 1)], m),
                "SparseSymMatrix": lambda m: SparseSymMatrix(m, [0, 0, 0], [], [])}
    for entry, call in by_nodes.items():
        for m in REFUSED_NODES:
            outcome = _refusal(lambda: call(m))
            if entry == "save_edge_list":
                outcome += f" (file written: {path.exists()})"
                path.unlink(missing_ok=True)
            yield f"{entry}/n={m}", outcome
    table = ["bound-table", "--n", str(n), "--p", "0.2", "--trials", "1", "--scales", "1"]
    for extra in [["--tol", tol] for tol in REFUSED_TOLS] + [
            ["--trials", "0"], ["--n", "0"], ["--scales", "lin:0:1:0"], ["--n", "600", "--true"]]:
        yield f"cli-bound-table/{' '.join(extra)}", _cli_refusal(table + extra)
    for extra in (["--scales", "1", "--lambda-max", "-1"], ["--scales", "lin:1:inf:2"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning is a refusal of its own
            try:
                outcome = _cli_refusal(diffuse + ["--signal", "normal:3"] + extra)
            except Warning as exc:
                outcome = f"{type(exc).__name__}: {exc}"
        yield f"cli-diffuse/{' '.join(extra)}", outcome
    big = 2 ** 53 + 2
    outcome = _refusal(lambda: save_edge_list(path, [(0, big - 1)], big))
    yield "save_edge_list/endpoint=2**53+1", f"{outcome} (file written: {path.exists()})"
    path.unlink(missing_ok=True)


def main() -> int:
    for case, args in TABLES.items():
        print(f"{case} {_table_digest(*args)}", flush=True)
    for graph, op in _graphs().items():
        for signal, x in _signals(op.n).items():
            for kind in KINDS:
                print(f"{graph}/{signal}/{kind} {_digest(op, x, kind)}", flush=True)
    csr = _csr_graphs()
    for graph, (edges, n, kinds) in csr.items():
        for kind in kinds:
            print(f"csr/{graph}/{kind} {_csr_digest(edges, n, kind)}", flush=True)
    with mock.patch("chebheat.graphs._INDEX32_MAX", 0, create=True):  # int64 positions
        for graph, (edges, n, kinds) in csr.items():
            for kind in kinds:
                print(f"csr-wide/{graph}/{kind} {_csr_digest(edges, n, kind)}", flush=True)
    for k_max in BESSEL_ORDERS:
        print(f"bessel/k_max={k_max} {_bessel_digest(k_max)}", flush=True)
    for kind in BoundKind:
        print(f"min_order/{kind.value} {_min_order_digest(kind)}", flush=True)
    for graph, op in _graphs().items():  # fresh operators: nothing kept on them yet
        print(f"lambda/{graph} {_lambda_digest(op)}", flush=True)
        if op.n > DENSE_CAP:
            continue
        for signal in ("dirac", "normal"):
            x = _signals(op.n)[signal]
            print(f"measure_errors/{graph}/{signal} {_measure_digest(op, x)}", flush=True)
            print(f"true_min_order/{graph}/{signal} {_true_digest(op, x)}", flush=True)
        print(f"exact_diffusion/{graph} {_exact_digest(op)}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case, outcome in _refusals(tmp):
            print(f"refusals/{case} {outcome}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
