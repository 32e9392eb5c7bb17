"""Dense reference paths used to validate the sparse pipeline.

Everything here is deliberately independent of the fast code: the
eigendecomposition is LAPACK's (``numpy.linalg.eigh``), which shares no
code with the Chebyshev path, and the coefficient integral is plain
composite Simpson quadrature. Sizes are capped so the dense work stays
cheap. The cyclic Jacobi eigensolver is kept as a second, in-house
witness of the LAPACK spectrum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bessel import ORDER_CAP, bessel_ie_scaled
from .errors import ConvergenceError
from .graphs import SparseSymMatrix

__all__ = ["DenseSpectrum", "jacobi_eigh", "dense_spectrum", "exact_diffusion",
           "coeff_integral", "tail_sum"]

DENSE_CAP = 500
_SIMPSON_PANELS = 20000
_TAIL_TERMS = 2000


@dataclass(frozen=True, eq=False)
class DenseSpectrum:
    """Full eigendecomposition of a small symmetric operator."""

    eigenvalues: np.ndarray  # ascending
    vectors: np.ndarray  # orthonormal columns, one per eigenvalue


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


@functools.lru_cache(maxsize=32)
def dense_spectrum(op: SparseSymMatrix) -> DenseSpectrum:
    """Eigendecomposition of a sparse operator, memoized per operator object.

    Operators are immutable, so an object's spectrum never goes stale;
    callers share the read-only arrays.
    """
    if op.n > DENSE_CAP:
        raise ValueError(f"dense oracle is limited to n <= {DENSE_CAP}, got {op.n}")
    eig, vec = np.linalg.eigh(op.to_dense())  # eigenvalues ascending
    for a in (eig, vec):
        a.flags.writeable = False
    return DenseSpectrum(eigenvalues=eig, vectors=vec)


def exact_diffusion(op: SparseSymMatrix, x: np.ndarray, tau: float) -> np.ndarray:
    """Apply ``exp(-tau * op)`` through the dense eigendecomposition."""
    tau = float(tau)
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.n,):
        raise ValueError(f"expected vector of length {op.n}")
    spec = dense_spectrum(op)
    xhat = spec.vectors.T @ x
    return spec.vectors @ (np.exp(-tau * spec.eigenvalues) * xhat)


def coeff_integral(k: int, tau: float) -> float:
    """Chebyshev coefficient via direct quadrature.

    Composite Simpson on ``(2/pi) * cos(k t) * exp(-tau (cos t + 1))``
    over ``[0, pi]`` with a fixed panel count. Slow but entirely
    independent of the Bessel route.
    """
    k = int(k)
    if k < 0:
        raise ValueError("k must be non-negative")
    tau = float(tau)
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    theta = np.linspace(0.0, np.pi, _SIMPSON_PANELS + 1)
    f = np.cos(k * theta) * np.exp(-tau * (np.cos(theta) + 1.0))
    w = np.ones(_SIMPSON_PANELS + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = np.pi / _SIMPSON_PANELS
    return float((2.0 / np.pi) * (h / 3.0) * (w @ f))


def tail_sum(order: int, tau_eff: float) -> float:
    """Sum of coefficient magnitudes just past the truncation order.

    Adds ``|c_k|`` for ``k = order+1 .. order+2000``; by coefficient
    decay this is an effective stand-in for the full tail.
    """
    order = int(order)
    if order < 0:
        raise ValueError("order must be non-negative")
    if order + _TAIL_TERMS > ORDER_CAP:
        raise ValueError(f"order too large: tail window exceeds cap {ORDER_CAP}")
    if tau_eff == 0.0:
        return 0.0
    ie = bessel_ie_scaled(order + _TAIL_TERMS, tau_eff)
    return float(2.0 * np.sum(ie[order + 1 :]))
