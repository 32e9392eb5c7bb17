"""Command-line front end: diffusion runs, bound tables, random graphs.

All commands emit CSV with ``#``-prefixed metadata lines, one header
row, then data rows. Floats are written with 17 significant digits so
files round-trip exactly. Exit codes: 0 success, 2 usage or input
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext

import numpy as np

from ._rows import write_rows
from .bounds import AUTO, BoundKind, _sweep, energy_ratio
# perfbench spans the searches and the oracle under these names
from .bounds import min_order, true_min_order  # noqa: F401
from .diffusion import expm_multiscale
from .errors import NumericalError
from .graphs import (_check_lambda_max, _check_scales, _check_tol, _count, _spec_field,
                     build_laplacian, erdos_renyi, load_graph, load_signal, save_edge_list)
from .oracle import _check_dense, _dense_lambda, _measured_orders, _resolve_lambda

__all__ = ["main", "entry"]

_KIND_CHOICES = [AUTO] + [k.value for k in BoundKind]
# the columns of the paper's order table, which bound-table reproduces
_TABLE_KINDS = (BoundKind.NEW_GENERIC, BoundKind.NEW_SPECIFIC,
                BoundKind.BASELINE_GENERIC, BoundKind.BASELINE_SPECIFIC)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _parse_scales(spec: str) -> list[float]:
    head, _, rest = spec.partition(":")
    if head in ("lin", "log"):
        parts = rest.split(":")
        if len(parts) != 3:
            raise ValueError(f"--scales grid must be {head}:start:stop:count, got {spec!r}")
        a, b, m = (_spec_field(f"--scales {spec!r}", field, convert, text) for field, convert, text
                   in zip(("start", "stop", "count"), (float, float, int), parts))
        m = _count(m, "--scales grid count", 1)
        if head == "log" and (a <= 0.0 or b <= 0.0):
            raise ValueError("--scales log grid endpoints must be positive")
        a, b = _check_scales([a, b])  # before numpy spans them: inf gives NaN and a warning
        if head == "lin":
            return [float(t) for t in np.linspace(a, b, m)]
        with np.errstate(over="ignore"):  # 10 ** log10(b) may round past the float maximum
            grid = np.logspace(math.log10(a), math.log10(b), m)
        if not np.isfinite(grid).all():
            raise ValueError(f"--scales grid {spec!r} has a scale past the float range")
        return [float(t) for t in grid]
    try:
        return [float(tok) for tok in spec.split(",")]
    except ValueError:
        raise ValueError(f"--scales expects lin:a:b:m, log:a:b:m or a comma list, got {spec!r}") from None


def _resolve_graph(spec: str, laplacian: str, signal: str):
    """Graph spec and signal spec -> (operator, signal). Accepts er:n:p:seed or a file path.

    The signal is read and checked as soon as the node count is known:
    before an ``er:`` graph is drawn, and after a file is read but before
    its operator is built.
    """
    if spec.startswith("er:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise ValueError(f"--graph generator must be er:n:p:seed, got {spec!r}")
        n, p, seed = (_spec_field(f"--graph {spec!r}", field, convert, text) for field, convert, text
                      in zip(("n", "p", "seed"), (int, float, int), parts[1:]))
        sig = load_signal(signal, n)
        edges = erdos_renyi(n, p, seed)
    else:
        edges, n = load_graph(spec)
        sig = load_signal(signal, n)
    return build_laplacian(edges, n, kind=laplacian), sig


def _seed(text: str) -> int:
    """``--seed``, checked as a spec's seed field is."""
    return _spec_field(f"--seed {text!r}", "seed", int, text)


def _out_stream(path: str | None):
    if path:
        return open(path, "w", encoding="utf-8")
    return nullcontext(sys.stdout)


def cmd_diffuse(args) -> None:
    scales = _check_scales(_parse_scales(args.scales))
    _check_tol(args.tol)  # all three refused before the graph is drawn or read
    if args.lambda_max is not None:
        _check_lambda_max(args.lambda_max)
    op, sig = _resolve_graph(args.graph, args.laplacian, args.signal)
    n = op.n
    results = expm_multiscale(op, sig, scales, tol=args.tol, kind=args.bound,
                              lambda_max=args.lambda_max)
    rep = results[0][1]
    with _out_stream(args.out) as fh:
        fh.write("# command=diffuse\n")
        fh.write(f"# n={n} nnz={op.nnz} laplacian={args.laplacian}\n")
        fh.write(f"# K={rep.order} lambda_max={_fmt(rep.lambda_max)} kind={rep.kind.value}"
                 f" bound={_fmt(max(r.bound for _, r in results))} tol={_fmt(rep.tol)}"
                 f" matvecs={rep.matvecs} setup_matvecs={rep.setup_matvecs}\n")
        fh.write("node," + ",".join(f"tau={_fmt(t)}" for t in scales) + "\n")
        write_rows(fh, ",", [np.arange(n)], [y for y, _ in results])


def bound_table_data(n: int, p: float, trials: int, taus, tol: float,
                     seed: int, with_true: bool):
    """Per-trial minimum orders for the paper's four certificates on ER graphs.

    Returns a dict with the scale list (``taus``), the per-trial
    effective scales (``tau_effs``, trials x m), one (trials x m)
    integer array per kind of ``_TABLE_KINDS`` (``orders``), the measured-minimum
    array when ``with_true``, else None (``true``), and each trial's
    :func:`~chebheat.bounds.energy_ratio` (``ratios``, length trials).
    Trial t draws the graph with ``seed + t`` and the standard-normal
    signal with ``seed + t + 10000``. ``trials`` and ``n`` are counts of
    at least 1, every scale is finite and non-negative, ``tol`` is
    positive and, ``with_true``, ``n`` is at most the dense oracle's cap:
    each is refused before the first draw.

    A trial resolves its ``lambda_hat`` once, and that one number sets
    its effective scales and so every order in the table, certified and
    measured. It is the power estimate
    :func:`~chebheat.diffusion.estimate_lambda_max` gives, or, with
    ``with_true``, the top eigenvalue of the dense spectrum the measured
    orders need anyway, plus LAPACK's rounding margin
    (:func:`~chebheat.oracle._dense_lambda`): an upper bound on the
    spectrum at no matvec, where the power estimate may lie below it.
    Each kind's orders come from one sweep of the trial's effective
    scales, the one the ``auto`` plan runs, which starts each search from
    the orders the kind took at the two scales before and changes no
    order (:func:`~chebheat.bounds.min_order`).
    A trial's measured orders come from one scan of all its scales in
    :mod:`chebheat.oracle`, the scan behind
    :func:`~chebheat.bounds.true_min_order`, up to the first scale whose
    certified orders fail, at that ``lambda_hat``. The first error is
    raised in the order of a loop over the scales that, at each scale,
    finds the four certified orders and then the measured one.
    """
    trials, n, tol = _count(trials, "trials", 1), _count(n, "n", 1), _check_tol(tol)
    taus = list(_check_scales(taus))
    if with_true:
        _check_dense(n)
    m = len(taus)
    tau_effs = np.zeros((trials, m))
    ratios = np.zeros(trials)
    orders = {kind: np.zeros((trials, m), dtype=np.int64) for kind in _TABLE_KINDS}
    true_orders = np.zeros((trials, m), dtype=np.int64) if with_true else None
    for t in range(trials):
        edges = erdos_renyi(n, p, seed + t)
        op = build_laplacian(edges, n)
        sig = load_signal(f"normal:{seed + t + 10000}", n)
        ratios[t] = ratio = energy_ratio(sig, op)
        lam = _resolve_lambda(op, None, _dense_lambda if with_true else None)[0]
        tau_effs[t] = [lam * tau / 2.0 for tau in taus]
        sweeps = [_sweep(kind, tau_effs[t], tol, ratio) for kind in _TABLE_KINDS]
        failed, error = m, None  # the first scale whose certified orders fail, and why
        for j in range(m):  # drawn scale by scale, kinds in table order
            try:
                for kind, sweep in zip(_TABLE_KINDS, sweeps):
                    orders[kind][t, j] = next(sweep)[0]
            except (ValueError, NumericalError) as exc:  # raised after earlier scales' errors
                failed, error = j, exc
                break
        if with_true and failed:
            for j, order in enumerate(_measured_orders(op, sig, taus[:failed], tol, lam)):
                if isinstance(order, Exception):
                    raise order
                true_orders[t, j] = order
        if error is not None:
            raise error
    return {"taus": taus, "tau_effs": tau_effs, "orders": orders, "true": true_orders,
            "ratios": ratios}


def cmd_bound_table(args) -> None:
    taus = _parse_scales(args.scales)
    seed = _seed(args.seed)
    data = bound_table_data(args.n, args.p, args.trials, taus, args.tol, seed, args.true)
    names = [("true", data["true"])] if args.true else []
    names += [(kind.value.replace("-", "_"), data["orders"][kind]) for kind in _TABLE_KINDS]
    with _out_stream(args.out) as fh:
        fh.write("# command=bound-table\n")
        fh.write(f"# n={args.n} p={_fmt(args.p)} trials={args.trials}"
                 f" tol={_fmt(args.tol)} seed={seed}\n")
        cols = ["tau", "tau_eff_median"]
        values = [np.array(data["taus"]), np.median(data["tau_effs"], axis=0)]
        for name, arr in names:
            cols += [f"k_{name}_q25", f"k_{name}_median", f"k_{name}_q75"]
            values += list(np.percentile(arr, [25.0, 50.0, 75.0], axis=0))
        fh.write(",".join(cols) + "\n")
        write_rows(fh, ",", [], values)


def cmd_gen_graph(args) -> None:
    seed = _seed(args.seed)
    edges = erdos_renyi(args.n, args.p, seed)
    save_edge_list(args.out, edges, args.n, comment=f"p={_fmt(args.p)} seed={seed}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chebheat",
                                     description="Graph heat diffusion via Chebyshev expansions")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=1e-5)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("diffuse", help="apply the heat kernel at one or more scales")
    p.add_argument("--graph", required=True,
                   help="graph file (edge list or Matrix Market) or er:n:p:seed")
    p.add_argument("--signal", required=True,
                   help="signal file or dirac:k / normal:seed / const:v")
    p.add_argument("--laplacian", choices=["combinatorial", "normalized"],
                   default="combinatorial")
    p.add_argument("--lambda-max", type=float, default=None,
                   help="known spectral radius; skips the ceiling or estimate")
    p.add_argument("--bound", choices=_KIND_CHOICES, default=AUTO,
                   help="certificate that sets the order (default auto: the signal's "
                        "tail kind, the smallest order any kind certifies)")
    p.add_argument("--scales", required=True,
                   help="lin:a:b:m, log:a:b:m or comma-separated values")
    add_common(p)
    p.set_defaults(func=cmd_diffuse)

    p = sub.add_parser("bound-table",
                       help="minimum certified order per scale over random graphs")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--p", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--scales", default="log:1e-2:1e2:25")
    p.add_argument("--true", action=argparse.BooleanOptionalAction, default=True,
                   help="include the measured minimum order (needs n small enough "
                        "for the dense oracle)")
    p.add_argument("--seed", default="0")
    add_common(p)
    p.set_defaults(func=cmd_bound_table)

    p = sub.add_parser("gen-graph", help="write a reproducible random graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", default="0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_graph)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
