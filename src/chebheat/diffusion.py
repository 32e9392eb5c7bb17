"""Heat-kernel diffusion drivers: single scale, many scales, error audit.

The pipeline is: bound the spectral radius, rescale the operator to
[0, 2], choose each scale's truncation order from a certified bound
(under ``auto`` the smallest the kind resolved at the largest effective
scale certifies there; under an explicit kind the largest scale's
order for all), then run the three-term recurrence once, to the
longest series; each ends at its last nonzero coefficient. Every run
takes one path: each recurrence vector goes into the outputs whose
series reaches it soon after it is drawn, so m scales cost the matvecs
of the longest one and no basis is stored. A single scale is the case
m = 1. On runs large enough to repay it, the additions run on one
helper thread per run, overlapped with the recurrence, which stays on
the calling thread with every matvec (see :mod:`chebheat.chebyshev`).

This module only plans and runs. The spectral radius a run rescales by
is chosen in :mod:`chebheat.oracle`, whose rule
:func:`estimate_lambda_max` exposes, and the certified orders in
:mod:`chebheat.bounds`. :func:`measure_errors` audits a run: it runs the
same expansion and compares it with the oracle's
:func:`~chebheat.oracle.exact_diffusion`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (_TAIL_KINDS, AUTO, BoundKind, _sweep, energy_ratio, log_bound_value,
                     min_order, select_bound)
from .chebyshev import build_basis, cheb_coefficients, combine
from .graphs import SparseSymMatrix, _check_scales, _check_tol, _count, _signal
from .oracle import _resolve_lambda, _spectral_ceiling, exact_diffusion

__all__ = ["DiffusionPlan", "DiffusionReport", "estimate_lambda_max",
           "make_plan", "expm_multiply", "expm_multiscale", "measure_errors"]


@dataclass(frozen=True)
class DiffusionPlan:
    """Everything decided before the first matvec of a diffusion run.

    ``scale_orders`` and ``bounds`` hold each scale's order and certified
    bound, in the order of ``scales``: the certificate is a priori, so it
    is settled here. ``order``, the largest of them, is the recurrence's.
    """

    lambda_max: float
    scales: tuple[float, ...]
    tau_effs: tuple[float, ...]
    order: int
    kind: BoundKind
    tol: float
    setup_matvecs: int
    bounds: tuple[float, ...]
    scale_orders: tuple[int, ...]


@dataclass(frozen=True)
class DiffusionReport:
    """Per-scale record of what a diffusion run did and certified.

    ``order`` is the run's largest certified order, shared by every
    scale; ``scale_order`` is this scale's certified order, and
    ``bound`` is its certificate there. The terms past a scale's last
    nonzero coefficient are exact zeros and are not added, so
    ``matvecs``, the recurrence's, is ``order`` unless every scale's
    coefficients underflow to zero before it.
    """

    tau: float
    tau_eff: float
    order: int
    lambda_max: float
    kind: BoundKind
    bound: float
    tol: float
    matvecs: int
    setup_matvecs: int
    scale_order: int


def estimate_lambda_max(op: SparseSymMatrix) -> float:
    """The spectral-radius value a run with one of the paper's four kinds rescales by.

    The operator's ``spectral_bound`` when it carries one (2 for a
    normalized Laplacian), otherwise the power-iteration Rayleigh
    quotient inflated by 1%, so the rescaled spectrum stays inside
    [0, 2] even though the iterate only approaches the true value from
    below. The iteration starts from a fixed vector, so the value depends
    on the operator alone; exactly 0.0 for the zero operator. It is kept
    on the operator object, so asking again about that object costs no
    matvecs. Raises ConvergenceError if the iteration does not settle.
    """
    return _resolve_lambda(op, None)[0]


def _require_psd(op: SparseSymMatrix) -> None:
    """Raise ValueError unless ``op`` is known to be positive semidefinite.

    An operator with a kernel vector is a Laplacian from
    :func:`build_laplacian`, or a ``scaled`` copy of one, and so is
    semidefinite. Any other operator must have ``a_ii >= sum_{j != i}
    |a_ij|`` on every row, compared with no slack: then every Gershgorin
    disc, and so every eigenvalue, lies in [0, inf). One pass over the
    stored entries, each row's magnitudes added in CSR order, no matvecs.
    """
    if op.kernel_vector is not None:
        return
    rows, _, vals, off_diag, diag = op._diagonal()
    off = np.bincount(rows[off_diag], weights=np.abs(vals[off_diag]), minlength=op.n)
    bad = np.flatnonzero(diag < off)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"cannot certify a bound on an operator not known to be positive semidefinite: "
            f"row {i} has diagonal {float(diag[i])!r} below {float(off[i])!r}, the sum of its "
            f"off-diagonal magnitudes (build_laplacian's Laplacians need no check)")


def make_plan(op: SparseSymMatrix, signal, scales, tol: float,
              kind: BoundKind | str = AUTO, lambda_max: float | None = None) -> DiffusionPlan:
    """Resolve orders, bound kind, rescaling and bounds for a set of scales.

    `kind=AUTO` resolves to the tail kind of the variant that
    :func:`~chebheat.bounds.select_bound` picks for this signal at the
    largest effective scale: the summed coefficient tail, never looser
    than the new or the baseline bound of that variant, so its order is
    the smallest any kind certifies. It gives every scale its own order,
    the smallest that kind certifies there, found by the sweep
    ``bound-table`` runs too, each search started from the orders of the
    two scales before (the same orders as plain searches), and the
    recurrence runs to the largest of them. An explicit kind gives every
    scale the order it certifies at the largest effective scale. The
    specific kinds read the signal's energy over its energy along the
    operator's ``kernel_vector`` (:func:`~chebheat.bounds.energy_ratio`).
    When the operator has no kernel vector, or the signal has no
    component along it (its components sum to zero, on a combinatorial
    Laplacian) or one that cancels past the float range, a specific kind
    raises ``ValueError`` and AUTO picks a generic one. Each scale's bound is
    the chosen certificate at its order, exactly 0 at a zero scale.

    ``signal`` is any finite, non-empty 1-d array_like of length
    ``op.n``; like every function that takes a signal, this one checks
    it and works on a read-only float64 copy, which it makes only when
    the signal is not already one. ``tol`` must be positive.

    The spectral radius is, in order of preference, the given
    ``lambda_max``, the operator's ``spectral_bound`` (2 for a normalized
    Laplacian, at no matvec cost), or else a value from the operator
    alone. AUTO and the tail kinds take a certified ceiling, free of
    matvecs: their certificate is tight enough that a spectral radius
    even 2% low breaks it. The paper's four kinds take an inflated
    power-iteration estimate from a fixed start vector, which is not
    certified. Either value is kept on the operator object: every later
    plan on the same object reuses it and reports ``setup_matvecs = 0``.
    A given ``lambda_max`` below a free lower bound on the spectral
    radius (the largest diagonal entry, or the largest eigenvalue of a
    stored edge's 2x2 principal submatrix), or 0 for a nonzero
    operator, raises ``ValueError``. The check is one-sided: a
    value that passes it is not thereby proven to bound the spectrum.

    The bounds hold only for a positive semidefinite operator. A Laplacian
    from :func:`~chebheat.graphs.build_laplacian` is one; any other
    operator must be diagonally dominant with a non-negative diagonal, or
    ``ValueError`` names its first row that is not.
    """
    ratio = energy_ratio(signal, op)
    scales = _check_scales(scales)
    if not scales:
        raise ValueError("need at least one scale")
    tol = _check_tol(tol)

    _require_psd(op)
    tail = kind == AUTO or BoundKind(kind) in _TAIL_KINDS
    lam_hat, setup = _resolve_lambda(op, lambda_max, _spectral_ceiling if tail else None)
    tau_effs = tuple(lam_hat * t / 2.0 for t in scales)
    tau_top = max(tau_effs)
    if kind == AUTO:
        kind = (BoundKind.TAIL_SPECIFIC if select_bound(tau_top, ratio) is BoundKind.NEW_SPECIFIC
                else BoundKind.TAIL_GENERIC)
        certified = list(_sweep(kind, tau_effs, tol, ratio))  # warm-started, same bits
    else:
        order = min_order(kind, tau_top, tol, ratio=ratio)
        certified = [(order, log_bound_value(kind, order, t, ratio)) for t in tau_effs]
    orders, log_bounds = zip(*certified)
    return DiffusionPlan(
        lambda_max=lam_hat,
        scales=scales,
        tau_effs=tau_effs,
        order=max(orders),
        kind=BoundKind(kind),
        tol=tol,
        setup_matvecs=setup,
        bounds=tuple(math.exp(b) for b in log_bounds),
        scale_orders=orders,
    )


def _diffuse(op: SparseSymMatrix, lam_hat: float, x: np.ndarray, orders,
             tau_effs) -> tuple[np.ndarray, int]:
    """The expansions of ``x``, one row per effective scale, and the matvecs they took.

    Each scale's coefficients are computed at its own order and cut
    after the last nonzero one (``c[0] > 0``): the terms past it are
    exact zeros, so its series ends there. Its row has the bits of a run
    of that scale alone. The recurrence runs on ``op`` rescaled by ``2 /
    lam_hat`` to the longest series, for every scale together, at most
    ``max(orders)`` matvecs; ``lam_hat == 0`` (the zero operator)
    returns copies at none.
    """
    coeffs = [c[:np.flatnonzero(c)[-1] + 1] for c in map(cheb_coefficients, tau_effs, orders)]
    if lam_hat == 0.0:
        return np.tile(x, (len(tau_effs), 1)), 0
    matvecs = max(map(len, coeffs)) - 1
    return combine(build_basis(op.scaled(2.0 / lam_hat), x, matvecs), coeffs), matvecs


def expm_multiply(op: SparseSymMatrix, x, tau: float, tol: float = 1e-5,
                  kind: BoundKind | str = AUTO,
                  lambda_max: float | None = None) -> tuple[np.ndarray, DiffusionReport]:
    """Apply the heat kernel at one scale with a certified order.

    The one-scale case of :func:`expm_multiscale`.

    Parameters
    ----------
    op : SparseSymMatrix
        Graph Laplacian (combinatorial or normalized).
    x : array_like
        Input signal, 1-d, finite and non-empty.
    tau : float
        Diffusion scale, >= 0.
    tol : float, optional
        Target for the certified squared relative error.
    kind : BoundKind or "auto", optional
        Which certificate selects the order.
    lambda_max : float, optional
        Known spectral radius; skips the ceiling or estimate when given. A value
        provably below the spectral radius raises ValueError; otherwise
        chosen from the operator alone, as in :func:`make_plan`.

    Returns
    -------
    (ndarray, DiffusionReport)
        The diffused signal and the run record.
    """
    return expm_multiscale(op, x, [tau], tol, kind=kind, lambda_max=lambda_max)[0]


def expm_multiscale(op: SparseSymMatrix, x, scales, tol: float = 1e-5,
                    kind: BoundKind | str = AUTO,
                    lambda_max: float | None = None) -> list[tuple[np.ndarray, DiffusionReport]]:
    """Apply the heat kernel at many scales off one shared basis.

    Each scale gets its order from :func:`make_plan`; one recurrence
    runs to the largest, and every scale sums the same basis vectors
    with its own coefficient vector up to its own order, adding no
    matvecs. Under ``auto`` each output is then bitwise equal to
    :func:`expm_multiply` at that scale with the plan's kind and
    ``lambda_max``. Each vector is dropped once it is in every output:
    memory holds the m outputs and at most a few basis vectors, never the
    basis. Results come in input order; the outputs are the rows of one
    ``(m, n)`` array.
    """
    x = _signal(x)
    plan = make_plan(op, x, scales, tol, kind=kind, lambda_max=lambda_max)
    ys, matvecs = _diffuse(op, plan.lambda_max, x, plan.scale_orders, plan.tau_effs)
    return [(y, DiffusionReport(tau=tau, tau_eff=tau_eff, order=plan.order,
                                lambda_max=plan.lambda_max, kind=plan.kind, bound=bound,
                                tol=plan.tol, matvecs=matvecs,
                                setup_matvecs=plan.setup_matvecs, scale_order=k))
            for y, tau, tau_eff, bound, k in zip(ys, plan.scales, plan.tau_effs, plan.bounds,
                                                  plan.scale_orders)]


def measure_errors(op: SparseSymMatrix, x, tau: float, order: int,
                   lambda_max: float | None = None) -> tuple[float, float]:
    """Measured squared relative errors of the rank-``order`` truncation.

    Computed against the dense spectral oracle, so only operators small
    enough for it are accepted; a larger one, like a signal of the wrong
    length, is refused before any matvec. ``lambda_max`` is chosen as a
    run with one of the paper's four kinds chooses it: the given value,
    checked as :func:`make_plan` checks it, else
    :func:`estimate_lambda_max`.
    A default ``auto`` run rescales by the certified ceiling instead; to
    measure that run's own output, pass its report's ``lambda_max``.
    ``tau`` must be finite and non-negative, and is refused before any
    matvec, and so is an ``order`` that is no count. Returns the pair
    (input-relative, output-relative).
    """
    x = _signal(x)
    [tau] = _check_scales([tau])
    order = _count(order, "order")
    w = exact_diffusion(op, x, tau)
    lam_hat, _ = _resolve_lambda(op, lambda_max)
    [y], _ = _diffuse(op, lam_hat, x, [order], [lam_hat * tau / 2.0])
    diff = y - w
    err = float(diff @ diff)
    denom_in = float(x @ x)
    denom_out = float(w @ w)
    if denom_out == 0.0:
        raise ValueError("exact diffusion is zero; output-relative error undefined")
    return err / denom_in, err / denom_out
