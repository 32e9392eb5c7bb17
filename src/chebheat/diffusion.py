"""Heat-kernel diffusion drivers: single scale, many scales, error audit.

The pipeline is: estimate the spectral radius, rescale the operator to
[0, 2], choose the truncation order from a certified bound at the
largest effective scale, then run the three-term recurrence. The
multiscale entry point builds the recurrence basis once and recombines
it per scale, so m scales cost the same matvecs as the single largest
one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import AUTO, BoundKind, SignalStats, log_bound_value, min_order, select_bound
from .chebyshev import build_basis, cheb_coefficients, cheb_sum, cheb_terms, combine
from .errors import ConvergenceError
from .graphs import GraphSignal, SparseSymMatrix

__all__ = ["DiffusionPlan", "DiffusionReport", "estimate_lambda_max",
           "make_plan", "expm_multiply", "expm_multiscale", "measure_errors"]

# power-iteration controls; a relative change of 1e-4 is plenty, the
# estimate is inflated afterwards anyway. A fixed start vector makes it
# a function of the operator alone.
_POWER_SEED = 0
_POWER_REL_TOL = 1e-4
_POWER_MIN_ITER = 10
_POWER_MAX_ITER = 10000
_POWER_INFLATE = 1.01
# relative rounding allowance of _lambda_floor: a given lambda_max
# this close to it may be the exact spectral radius
_FLOOR_SLACK = 1e-12


@dataclass(frozen=True)
class DiffusionPlan:
    """Everything decided before the first matvec of a diffusion run."""

    lambda_max: float
    scales: tuple[float, ...]
    tau_effs: tuple[float, ...]
    order: int
    kind: BoundKind
    tol: float
    setup_matvecs: int
    stats: SignalStats


@dataclass(frozen=True)
class DiffusionReport:
    """Per-scale record of what a diffusion run did and certified."""

    tau: float
    tau_eff: float
    order: int
    lambda_max: float
    kind: BoundKind
    bound: float
    tol: float
    matvecs: int
    setup_matvecs: int


def _power_iteration(op: SparseSymMatrix) -> tuple[float, int]:
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(op.n)
    v /= np.linalg.norm(v)
    rho_prev = math.inf
    hits = 0
    for it in range(1, _POWER_MAX_ITER + 1):
        w = op.matvec(v)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            # v is (numerically) in the kernel and matvec count stays honest
            return 0.0, it
        rho = float(v @ w)
        v = w / norm_w
        if it >= _POWER_MIN_ITER and rho > 0.0:
            if abs(rho - rho_prev) <= _POWER_REL_TOL * rho:
                hits += 1
                if hits >= 2:  # two consecutive passes; one can be a fluke
                    return rho, it
            else:
                hits = 0
        rho_prev = rho
    raise ConvergenceError(
        f"power iteration did not settle within {_POWER_MAX_ITER} iterations"
    )


def estimate_lambda_max(op: SparseSymMatrix) -> float:
    """The spectral-radius value a diffusion run on ``op`` rescales by.

    The operator's ``spectral_bound`` when it carries one (2 for a
    normalized Laplacian), otherwise the power-iteration Rayleigh
    quotient inflated by 1%, so the rescaled spectrum stays inside
    [0, 2] even though the iterate only approaches the true value from
    below. The iteration starts from a fixed vector, so the value depends
    on the operator alone; exactly 0.0 for the zero operator. Raises
    ConvergenceError if the iteration does not settle.
    """
    return _resolve_lambda(op, None)[0]


@functools.lru_cache(maxsize=1)
def _lambda_floor(op: SparseSymMatrix) -> float:
    """A lower bound on the largest eigenvalue, free of matvecs.

    By eigenvalue interlacing, the largest eigenvalue is at least every
    diagonal entry and the largest eigenvalue of every 2x2 principal
    submatrix; this takes the maximum over the diagonal and over the
    submatrices of the stored off-diagonal entries. Memoized for the last
    operator object (operators are read-only): an order table checks one
    given value against one operator at every scale.
    """
    if op.nnz == 0:
        return 0.0
    rows = np.repeat(np.arange(op.n), np.diff(op.row_ptr))
    on_diag = rows == op.col_idx
    diag = np.zeros(op.n)
    diag[rows[on_diag]] = op.values[on_diag]
    off = ~on_diag
    a = diag[rows[off]]
    b = diag[op.col_idx[off]]
    pair = 0.5 * (a + b) + np.hypot(0.5 * (a - b), op.values[off])
    return float(max(diag.max(), pair.max(initial=-math.inf)))


def _resolve_lambda(op: SparseSymMatrix, lambda_max: float | None) -> tuple[float, int]:
    """The rescaling value lambda_hat and the matvecs spent choosing it.

    In order of preference: the given ``lambda_max``, checked against
    :func:`_lambda_floor`; the operator's ``spectral_bound``; the inflated
    power-iteration estimate. Every path that rescales an operator gets
    its value here.
    """
    if lambda_max is not None:
        lam_hat = float(lambda_max)
        if not math.isfinite(lam_hat) or lam_hat < 0.0:
            raise ValueError("lambda_max must be finite and non-negative")
        floor = _lambda_floor(op)
        if lam_hat < floor * (1.0 - _FLOOR_SLACK) or (lam_hat == 0.0 and op.nnz > 0):
            raise ValueError(f"lambda_max={lam_hat!r} is below the spectral radius: an "
                             f"eigenvalue of at least {floor!r} exists")
        return lam_hat, 0
    if op.spectral_bound is not None:
        return op.spectral_bound, 0
    rho, iters = _power_iteration(op)
    return (rho * _POWER_INFLATE if rho > 0.0 else 0.0), iters


def _as_signal(x) -> GraphSignal:
    return x if isinstance(x, GraphSignal) else GraphSignal(x)


def make_plan(op: SparseSymMatrix, signal, scales, tol: float,
              kind: BoundKind | str = AUTO, lambda_max: float | None = None) -> DiffusionPlan:
    """Resolve order, bound kind and rescaling for a set of scales.

    The order is chosen once, at the largest effective scale, so a
    shared basis serves every scale. `kind=AUTO` resolves to whichever
    new-bound variant is sharper for this signal at that scale. For a
    signal whose components sum to zero, or cancel past the float range,
    a specific kind raises ``ValueError`` and AUTO picks the generic one.

    The spectral radius is, in order of preference, the given
    ``lambda_max``, the operator's ``spectral_bound`` (2 for a normalized
    Laplacian, at no matvec cost), or an inflated power-iteration
    estimate from a fixed start vector, so it depends on nothing else.
    A given ``lambda_max`` below a free lower bound on the spectral
    radius (the largest diagonal entry, or the largest eigenvalue of a
    stored edge's 2x2 principal submatrix), or 0 for a nonzero
    operator, raises ``ValueError``. The check is one-sided: a
    value that passes it is not thereby proven to bound the spectrum.
    """
    sig = _as_signal(signal)
    if sig.n != op.n:
        raise ValueError(f"signal length {sig.n} does not match operator size {op.n}")
    scales = tuple(float(t) for t in scales)
    if not scales:
        raise ValueError("need at least one scale")
    for t in scales:
        if not math.isfinite(t) or t < 0.0:
            raise ValueError(f"scales must be finite and non-negative, got {t}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    lam_hat, setup = _resolve_lambda(op, lambda_max)
    tau_effs = tuple(lam_hat * t / 2.0 for t in scales)
    tau_top = max(tau_effs)
    stats = SignalStats.from_signal(sig)
    resolved = select_bound(tau_top, stats) if kind == AUTO else BoundKind(kind)
    return DiffusionPlan(
        lambda_max=lam_hat,
        scales=scales,
        tau_effs=tau_effs,
        order=min_order(resolved, tau_top, tol, stats=stats),
        kind=resolved,
        tol=float(tol),
        setup_matvecs=setup,
        stats=stats,
    )


def _stream(op: SparseSymMatrix, lam_hat: float, x: np.ndarray, order: int,
            tau_eff: float) -> np.ndarray:
    # the rows build_basis would store, summed as combine sums them, so
    # the single-scale and multiscale paths agree bitwise
    op_scaled = op.scaled(2.0 / lam_hat)
    return cheb_sum(cheb_coefficients(tau_eff, order), cheb_terms(op_scaled.matvec, x))


def _report_for(plan: DiffusionPlan, idx: int, matvecs: int) -> DiffusionReport:
    tau_eff = plan.tau_effs[idx]
    if tau_eff > 0.0:
        bound = math.exp(log_bound_value(plan.kind, plan.order, tau_eff, plan.stats))
    else:
        bound = 0.0
    return DiffusionReport(
        tau=plan.scales[idx],
        tau_eff=tau_eff,
        order=plan.order,
        lambda_max=plan.lambda_max,
        kind=plan.kind,
        bound=bound,
        tol=plan.tol,
        matvecs=matvecs,
        setup_matvecs=plan.setup_matvecs,
    )


def expm_multiply(op: SparseSymMatrix, x, tau: float, tol: float = 1e-5,
                  kind: BoundKind | str = AUTO,
                  lambda_max: float | None = None) -> tuple[np.ndarray, DiffusionReport]:
    """Apply the heat kernel at one scale with a certified order.

    Parameters
    ----------
    op : SparseSymMatrix
        Graph Laplacian (combinatorial or normalized).
    x : GraphSignal or array_like
        Input signal.
    tau : float
        Diffusion scale, >= 0.
    tol : float, optional
        Target for the certified squared relative error.
    kind : BoundKind or "auto", optional
        Which certificate selects the order.
    lambda_max : float, optional
        Known spectral radius; skips power iteration when given. A value
        provably below the spectral radius raises ValueError; otherwise
        chosen from the operator alone, as in :func:`make_plan`.

    Returns
    -------
    (ndarray, DiffusionReport)
        The diffused signal and the run record.
    """
    sig = _as_signal(x)
    plan = make_plan(op, sig, [tau], tol, kind=kind, lambda_max=lambda_max)
    if plan.lambda_max == 0.0:
        return sig.values.copy(), _report_for(plan, 0, 0)
    y = _stream(op, plan.lambda_max, sig.values, plan.order, plan.tau_effs[0])
    return y, _report_for(plan, 0, plan.order)


def expm_multiscale(op: SparseSymMatrix, x, scales, tol: float = 1e-5,
                    kind: BoundKind | str = AUTO,
                    lambda_max: float | None = None) -> list[tuple[np.ndarray, DiffusionReport]]:
    """Apply the heat kernel at many scales off one shared basis.

    The basis is built for the largest effective scale; every other
    scale reuses it with its own coefficient vector, adding no matvecs.
    Results match the single-scale path bitwise, in input order.
    """
    sig = _as_signal(x)
    plan = make_plan(op, sig, scales, tol, kind=kind, lambda_max=lambda_max)
    if plan.lambda_max == 0.0:
        return [(sig.values.copy(), _report_for(plan, i, 0)) for i in range(len(plan.scales))]
    op_scaled = op.scaled(2.0 / plan.lambda_max)
    basis = build_basis(op_scaled, sig.values, plan.order)
    return [(combine(basis, cheb_coefficients(tau_eff, plan.order)),
             _report_for(plan, i, plan.order))
            for i, tau_eff in enumerate(plan.tau_effs)]


def measure_errors(op: SparseSymMatrix, x, tau: float, order: int,
                   lambda_max: float | None = None) -> tuple[float, float]:
    """Measured squared relative errors of the rank-``order`` truncation.

    Computed against the dense spectral oracle, so only operators small
    enough for it are accepted. ``lambda_max`` is chosen and checked by
    the same rule as :func:`make_plan`, so the audit measures the
    expansion a run with the same arguments computes. Returns the pair
    (input-relative, output-relative).
    """
    from .oracle import exact_diffusion

    sig = _as_signal(x)
    tau = float(tau)
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    lam_hat, _ = _resolve_lambda(op, lambda_max)
    if lam_hat == 0.0:
        y = sig.values.copy()
    else:
        y = _stream(op, lam_hat, sig.values, int(order), lam_hat * tau / 2.0)
    w = exact_diffusion(op, sig.values, tau)
    diff = y - w
    err = float(diff @ diff)
    denom_in = float(sig.values @ sig.values)
    denom_out = float(w @ w)
    if denom_out == 0.0:
        raise ValueError("exact diffusion is zero; output-relative error undefined")
    return err / denom_in, err / denom_out
