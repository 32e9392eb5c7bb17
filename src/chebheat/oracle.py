"""The operator's spectrum: the values a run rescales by, and the dense measurements.

Every decision about the spectrum of one operator is made here.

*The rescaling value* ``lambda_hat``. :func:`_resolve_lambda` picks it
for every path that rescales an operator, a diffusion run and a
measurement alike: a given ``lambda_max``, checked against the free
floor :func:`_lambda_floor`; else the operator's ``spectral_bound``;
else, for a certified run, the ceiling :func:`_spectral_ceiling`; else
the inflated power-iteration estimate. The ceiling and the estimate are
kept on the operator object.

*The dense references*, which share no code with the Chebyshev path:
:func:`dense_spectrum`, LAPACK's eigendecomposition
(``numpy.linalg.eigh``), kept on the operator object; :func:`jacobi_eigh`,
a cyclic Jacobi eigensolver kept as a second, in-house witness of that
spectrum; and :func:`exact_diffusion`, ``exp(-tau L) x`` through it.
Sizes are capped at ``DENSE_CAP`` nodes so the dense work stays cheap,
by the one size rule :func:`_check_dense`, which needs only the size.

*The measurement* of the production series against them.
:func:`_measured_orders` runs :mod:`chebheat.chebyshev`'s coefficients
and recurrence in the eigenbasis and finds the smallest order whose
error meets ``tol``; :func:`~chebheat.bounds.true_min_order` is its
one-scale call. (:func:`~chebheat.diffusion.measure_errors` measures a
diffusion run's own output against :func:`exact_diffusion`.) A trial of
``bound-table --true`` measures all its scales in one scan of the
orders on one spectral basis, drawn once a chunk at a time: the scales
that share a chunk are stacked into one array product, one running sum
and one sum of squares that only picks candidate orders, and each
candidate is decided by the one-order test a loop over the orders
makes, so every scale gets the loop's order. The scan holds one chunk
and one stack of at most 256 rows each, 2 MB at the oracle's limit of
500 nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import ORDER_CAP
from .chebyshev import cheb_coefficients, cheb_terms
from .errors import ConvergenceError, OrderCapError
from .graphs import SparseSymMatrix, _check_scales, _signal

__all__ = ["DenseSpectrum", "jacobi_eigh", "dense_spectrum", "exact_diffusion"]

DENSE_CAP = 500

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
# the measured-order scan: the most rows one array operation covers, the
# unit roundoff and twice the least subnormal (see _measured_orders)
_CHUNK = 256
_UNIT = 2.0 ** -53
_SUBNORMAL = 2.0 ** -1073


@dataclass(frozen=True, eq=False)
class DenseSpectrum:
    """Full eigendecomposition of a small symmetric operator."""

    eigenvalues: np.ndarray  # ascending
    vectors: np.ndarray  # orthonormal columns, one per eigenvalue


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


def _lambda_floor(op: SparseSymMatrix) -> float:
    """A lower bound on the largest eigenvalue, free of matvecs.

    By eigenvalue interlacing, the largest eigenvalue is at least every
    diagonal entry and the largest eigenvalue of every 2x2 principal
    submatrix; this takes the maximum over the diagonal and over the
    submatrices of the stored off-diagonal entries. Computed afresh for
    each given ``lambda_max``, one pass over the stored entries.
    """
    if op.nnz == 0:
        return 0.0
    rows, cols, vals, off, diag = op._diagonal()
    a = diag[rows[off]]
    b = diag[cols[off]]
    pair = 0.5 * (a + b) + np.hypot(0.5 * (a - b), vals[off])
    return float(max(diag.max(), pair.max(initial=-math.inf)))


def _spectral_ceiling(op: SparseSymMatrix) -> float:
    """A certified upper bound on the largest eigenvalue, free of matvecs.

    Collatz-Wielandt: every eigenvalue of ``op`` is at most the spectral
    radius of its entrywise absolute value ``|A|``, and for every
    positive ``v`` that is at most ``max_i (|A| v)_i / v_i``. With ``v``
    the absolute row sums (1 on an empty row), twice the degrees on a
    Laplacian, this is Merris's bound ``max_i (d_i + sum_j w_ij d_j /
    d_i)`` (Linear Algebra Appl. 285, 1998): exactly 8 on a 2-D lattice,
    about 1.4 to 1.6 times the top eigenvalue on ER graphs. The ratio is
    inflated by twice the relative rounding of a sum as long as the
    longest row. Two products with ``|A|`` and no matvec, kept on the
    operator object like the power estimate.
    """
    if "ceiling" not in op._facts:
        v = op._product(np.ones(op.n), absolute=True)
        v[v == 0.0] = 1.0
        terms = int(np.diff(op.row_ptr).max()) + 2
        ratio = float(np.max(op._product(v, absolute=True) / v))
        op._facts["ceiling"] = ratio * (1.0 + terms * 2.0 ** -52)
    return op._facts["ceiling"]


def _resolve_lambda(op: SparseSymMatrix, lambda_max: float | None,
                    certified: bool = False) -> tuple[float, int]:
    """The rescaling value lambda_hat and the matvecs spent choosing it.

    In order of preference: the given ``lambda_max``, checked against
    :func:`_lambda_floor`; the operator's ``spectral_bound``; with
    ``certified``, :func:`_spectral_ceiling`; else the inflated
    power-iteration estimate. Every path that rescales an operator gets
    its value here. The ceiling and the estimate are functions of the
    (read-only) operator alone, so they are kept on the operator object:
    every repeat on that object returns the same bits at 0 matvecs,
    whatever other operators were used in between. A failed iteration
    stores nothing.
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
    if certified:
        return _spectral_ceiling(op), 0
    if "lambda_hat" in op._facts:
        return op._facts["lambda_hat"], 0
    rho, iters = _power_iteration(op)
    lam_hat = rho * _POWER_INFLATE if rho > 0.0 else 0.0
    op._facts["lambda_hat"] = lam_hat
    return lam_hat, iters


def jacobi_eigh(matrix: np.ndarray, max_sweeps: int = 30):
    """Cyclic Jacobi eigendecomposition of a dense symmetric matrix.

    Sweeps until the off-diagonal Frobenius norm falls below
    ``1e-12 * (1 + ||A||_F)``. Returns ``(eigenvalues, vectors)`` with
    eigenvalues ascending.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    ut = np.eye(n)  # holds U^T so rotations touch contiguous rows
    if n == 1:
        return a[0].copy(), ut
    stop = 1e-12 * (1.0 + np.linalg.norm(a))
    diag = np.einsum("ii->i", a)  # writable view: zero it to measure off-norm
    for sweep in range(max_sweeps + 1):
        saved = diag.copy()
        diag[:] = 0.0
        off = float(np.linalg.norm(a))  # no cancellation, unlike ||A||^2 - ||d||^2
        diag[:] = saved
        if off <= stop:
            break
        if sweep == max_sweeps:
            raise ConvergenceError(f"jacobi sweep budget ({max_sweeps}) exhausted")
        skip = off * 1e-16
        for p in range(n - 1):
            row_p = a[p]
            for q in range(p + 1, n):
                apq = row_p[q]
                if abs(apq) <= skip:
                    continue
                row_q = a[q]
                app = row_p[p]
                aqq = row_q[q]
                theta = (aqq - app) / (2.0 * apq)
                t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                # symmetry lets the whole similarity update run on rows
                new_p = c * row_p - s * row_q
                new_q = s * row_p + c * row_q
                a[p] = new_p
                a[q] = new_q
                a[:, p] = new_p
                a[:, q] = new_q
                dpp = c * c * app - 2.0 * c * s * apq + s * s * aqq
                dqq = s * s * app + 2.0 * c * s * apq + c * c * aqq
                a[p, p] = dpp
                a[q, q] = dqq
                a[p, q] = 0.0
                a[q, p] = 0.0
                up = c * ut[p] - s * ut[q]
                ut[q] = s * ut[p] + c * ut[q]
                ut[p] = up
                row_p = a[p]
    eig = np.diag(a).copy()
    order = np.argsort(eig, kind="stable")
    return eig[order], np.ascontiguousarray(ut[order].T)


def _check_dense(n: int) -> None:
    """Refuse a size past ``DENSE_CAP``: the dense oracle's one size rule."""
    if n > DENSE_CAP:
        raise ValueError(f"dense oracle is limited to n <= {DENSE_CAP}, got {n}")


def dense_spectrum(op: SparseSymMatrix) -> DenseSpectrum:
    """Eigendecomposition of a sparse operator, kept on the operator object.

    Operators are immutable, so an object's spectrum never goes stale;
    callers share the read-only arrays. The spectrum lives as long as
    its operator, and no longer.
    """
    _check_dense(op.n)
    if "dense_spectrum" not in op._facts:
        eig, vec = np.linalg.eigh(op.to_dense())  # eigenvalues ascending
        for a in (eig, vec):
            a.flags.writeable = False
        op._facts["dense_spectrum"] = DenseSpectrum(eigenvalues=eig, vectors=vec)
    return op._facts["dense_spectrum"]


def _coordinates(op: SparseSymMatrix, signal) -> tuple[DenseSpectrum, np.ndarray]:
    """The operator's dense spectrum and the signal's coordinates in its eigenbasis.

    The signal is checked as every signal is, against the operator's
    size, before any dense work.
    """
    x = _signal(signal, op.n)
    spec = dense_spectrum(op)
    return spec, spec.vectors.T @ x


def exact_diffusion(op: SparseSymMatrix, x: np.ndarray, tau: float) -> np.ndarray:
    """Apply ``exp(-tau * op)`` through the dense eigendecomposition.

    ``x`` is a signal, checked as every signal is; ``tau`` must be finite
    and non-negative. Both are refused before any dense work.
    """
    [tau] = _check_scales([tau])
    spec, xhat = _coordinates(op, x)
    return spec.vectors @ (np.exp(-tau * spec.eigenvalues) * xhat)


def _stages():
    # (first, last) orders of the coefficient stages up to ORDER_CAP: 0..64,
    # 65..128, 129..256, ...: a scale's vector is recomputed at double the
    # length whenever the scan runs past it, and each order takes its
    # coefficient from the first vector long enough to hold it
    done, size = 0, min(ORDER_CAP, 64)
    while True:
        yield done, size
        if size == ORDER_CAP:
            return
        done, size = size + 1, min(ORDER_CAP, 2 * size)


def _measured_orders(op, signal, taus, tol: float, lambda_max: float | None = None) -> list:
    """:func:`~chebheat.bounds.true_min_order` for each of ``taus``, in one scan.

    Every scale must be finite and non-negative and ``tol`` positive; the
    callers check them (:func:`~chebheat.graphs._check_scales`,
    :func:`~chebheat.graphs._check_tol`). Checks the signal, and
    resolves the dense spectrum, ``x_hat`` and ``lambda_hat``, once,
    raising on any of them. Each
    scale then gets its order, or the error it would raise, as a value
    in the list: a diffused signal that underflows to zero, or
    ``OrderCapError``.

    One walk of the orders serves every scale: the rows ``T_k(D)
    x_hat`` are drawn once, a chunk of at most ``_CHUNK`` orders at a
    time inside each coefficient stage, and every scale still scanning
    reads each chunk before the next is drawn, so no row is kept past
    its chunk. Scales that share a chunk are stacked, as many as fit
    in ``_CHUNK`` rows: the products ``c_k t_k``, their running sums
    (``np.cumsum`` adds along the orders one term at a time in ascending
    ``k``, ``(0.5 c_0) t_0`` first, each scale's row apart) and the
    errors from the targets are array operations with the bits of the
    per-order loop. The ``einsum`` of the squared errors
    only picks candidates: both it and the ``float(d @ d)`` the loop
    compares are within ``gamma_n = n u / (1 - n u)`` of the exact sum
    of squares, plus ``n`` half-units of the least subnormal (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, section
    3.1). A row is a candidate when its sum is at most ``tol * denom (1
    + gamma_n) / (1 - gamma_n)``, widened by four units for that
    product's own rounding, plus ``n`` times twice the least subnormal,
    so no order that meets ``tol`` is passed over. In ascending order,
    each candidate is then decided by ``float(d @ d)`` on a fresh 1-d
    copy of its row: the loop's own test, so every order is the loop's.
    A scale leaves the walk at its order; the walk ends when none is
    left, or at ``ORDER_CAP``. So it holds one chunk of rows, one stack
    of at most ``_CHUNK`` rows, and per scale two rows and the current
    stage's coefficients, never ``ORDER_CAP + 1`` rows.
    """
    spec, xhat = _coordinates(op, signal)
    lam_hat, _ = _resolve_lambda(op, lambda_max)
    n = xhat.size
    scale = 2.0 / lam_hat if lam_hat > 0.0 else 0.0
    d = np.clip(scale * spec.eigenvalues, 0.0, 2.0)
    gamma = n * _UNIT / (1.0 - n * _UNIT)
    widen = (1.0 + gamma) / (1.0 - gamma) * (1.0 + 4.0 * _UNIT)
    slack = n * _SUBNORMAL

    taus = [float(tau) for tau in taus]
    orders = [None] * len(taus)
    live, targets, denoms = [], [], []  # the scales still scanning
    for i, tau in enumerate(taus):
        target = np.exp(-tau * spec.eigenvalues) * xhat
        denom = float(target @ target)
        if denom == 0.0:
            orders[i] = ValueError("diffused signal underflowed to zero; "
                                   "relative error undefined")
            continue
        live.append(i)
        targets.append(target)
        denoms.append(denom)
    targets = np.array(targets).reshape(len(live), n)
    totals = np.empty_like(targets)  # each scale's sum through the last chunk
    limits = tol * np.array(denoms)
    loose = limits * widen + slack
    row = np.dtype((np.float64, n))  # np.fromiter reads whole rows
    rows_of = cheb_terms(lambda v: d * v, xhat)
    stacked = np.empty(_CHUNK * n)  # every stack's products, sums and errors
    for first, last in _stages():
        if not live:
            break
        coeffs = np.empty((len(live), last + 1 - first))
        for w, i in enumerate(live):
            coeffs[w] = cheb_coefficients(lam_hat * taus[i] / 2.0, last)[first:]
        for k in range(first, last + 1, _CHUNK):
            if not live:
                break
            m = min(_CHUNK, last + 1 - k)
            rows = np.fromiter(rows_of, row, m)
            per = max(1, _CHUNK // m)  # scales per stack
            found = set()
            for at in range(0, len(live), per):
                stack = slice(at, at + per)
                c = coeffs[stack, k - first:k - first + m]
                part = stacked[:c.size * n].reshape(len(c), m, n)
                np.multiply(c[:, :, None], rows, out=part)
                if k == 0:
                    part[:, 0] = (0.5 * c[:, :1]) * rows[0]
                else:
                    part[:, 0] += totals[stack]
                np.cumsum(part, axis=1, out=part)
                totals[stack] = part[:, -1]
                np.subtract(targets[stack, None], part, out=part)
                sums = np.einsum("gij,gij->gi", part, part)
                for g, w in enumerate(range(at, min(at + per, len(live)))):
                    for j in np.flatnonzero(sums[g] <= loose[w]):
                        diff = part[g, j].copy()
                        if float(diff @ diff) <= limits[w]:
                            orders[live[w]] = k + int(j)
                            found.add(w)
                            break
            if found:
                keep = [w for w in range(len(live)) if w not in found]
                live = [live[w] for w in keep]
                coeffs, targets, totals, limits, loose = (
                    a[keep] for a in (coeffs, targets, totals, limits, loose))
    for i in live:
        orders[i] = OrderCapError(
            f"no order up to {ORDER_CAP} reaches measured tol={tol} at tau={taus[i]}"
        )
    return orders
