"""Chebyshev expansion of the heat kernel on a [0, 2] spectrum.

For an operator whose spectrum lives in ``[0, 2]`` the scalar function
``exp(-tau * lam)`` expands as

    h(lam) = c[0] / 2 + sum_{k >= 1} c[k] * T_k(lam - 1)

with ``c[k] = (-1)^k * 2 * exp(-tau) * I_k(tau)``. The coefficient vector
stores ``c[0]`` unhalved; the halving happens wherever the series is
evaluated. Basis vectors ``T_k(op - I) x`` depend on the operator and the
signal only, so one basis serves every diffusion scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .bessel import bessel_ie_scaled
from .graphs import GraphSignal, SparseSymMatrix

__all__ = ["CoefficientSet", "ChebBasisCache", "cheb_coefficients", "cheb_terms",
           "cheb_partial_sums", "cheb_sum", "build_basis", "combine", "eval_scalar"]

_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Chebyshev coefficients of the heat kernel at one effective scale.

    ``coefficients[0]`` is stored unhalved. Signs alternate: entry ``k``
    carries the sign ``(-1)^k`` for any positive scale.
    """

    tau_eff: float
    order: int
    coefficients: np.ndarray


@dataclass(frozen=True, eq=False)
class ChebBasisCache:
    """Stacked basis vectors ``T_k(op - I) x`` for ``k = 0..order``.

    Row ``k`` of ``vectors`` is the k-th basis vector.
    """

    order: int
    vectors: np.ndarray


def cheb_coefficients(tau_eff: float, order: int) -> CoefficientSet:
    """Expansion coefficients of ``exp(-tau_eff * lam)`` up to ``order``.

    Parameters
    ----------
    tau_eff : float
        Effective (rescaled) diffusion scale, non-negative.
    order : int
        Truncation order; ``order + 1`` coefficients are returned.
    """
    order = int(order)
    if order < 0:
        raise ValueError("order must be non-negative")
    c = 2.0 * bessel_ie_scaled(order, tau_eff)
    c[1::2] *= -1.0
    c.flags.writeable = False
    return CoefficientSet(tau_eff=float(tau_eff), order=order, coefficients=c)


def cheb_terms(apply, x):
    """Yield ``T_k(A - I) x`` for ``k = 0, 1, 2, ...``, where ``apply(v) = A v``.

    This is the one three-term recurrence of the package. It is lazy:
    taking ``K + 1`` terms calls ``apply`` exactly ``K`` times.
    """
    yield x
    t_prev, t_cur = x, apply(x) - x
    while True:
        yield t_cur
        t_prev, t_cur = t_cur, 2.0 * (apply(t_cur) - t_cur) - t_prev


def cheb_partial_sums(coefficients, terms):
    """Yield ``c[0]/2 t_0 + c[1] t_1 + ... + c[k] t_k`` for ``k = 0, 1, ...``.

    Terms are added in ascending ``k``, one per coefficient, so every
    path that sums a series gives the same bits for the same terms. The
    running sum is updated in place; a caller that keeps one must copy it.
    """
    c = iter(coefficients)
    terms = iter(terms)
    y = (0.5 * next(c)) * next(terms)
    yield y
    for ck, t in zip(c, terms):  # c first: no term is drawn past the last coefficient
        y += ck * t
        yield y


def cheb_sum(coefficients, terms):
    """The full sum of :func:`cheb_partial_sums`."""
    for y in cheb_partial_sums(coefficients, terms):
        pass
    return y


def build_basis(op: SparseSymMatrix, signal, order: int) -> ChebBasisCache:
    """Build all basis vectors for ``signal`` under ``op``.

    ``op`` must already be rescaled so its spectrum sits inside
    ``[0, 2]``. Costs exactly ``order`` matrix-vector products; every
    intermediate vector is kept so later recombinations are matvec-free.
    """
    order = int(order)
    if order < 0:
        raise ValueError("order must be non-negative")
    if isinstance(signal, GraphSignal):
        x = signal.values
    else:
        x = np.ascontiguousarray(signal, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("signal must be 1-d")
    if x.size != op.n:
        raise ValueError(f"signal length {x.size} does not match operator size {op.n}")
    vectors = np.empty((order + 1, op.n))
    for k, t in enumerate(islice(cheb_terms(op.matvec, x), order + 1)):
        vectors[k] = t
    vectors.flags.writeable = False
    return ChebBasisCache(order=order, vectors=vectors)


def combine(cache: ChebBasisCache, coeffs: CoefficientSet):
    """Contract a coefficient set against a cached basis.

    The stored rows go through :func:`cheb_sum`, the same ascending-``k``
    sum the streaming single-scale path runs, so both give bit-identical
    output.
    """
    if coeffs.order > cache.order:
        raise ValueError(
            f"basis of order {cache.order} cannot serve coefficients of order {coeffs.order}"
        )
    return cheb_sum(coeffs.coefficients, cache.vectors)


def eval_scalar(tau_eff: float, order: int, lam):
    """Evaluate the truncated expansion at scalar points in ``[0, 2]``.

    Accepts a float or an array; the return matches the input shape.
    """
    arr = np.asarray(lam, dtype=np.float64)
    if np.any(arr < -_DOMAIN_SLACK) or np.any(arr > 2.0 + _DOMAIN_SLACK):
        raise ValueError("lambda outside the rescaled spectral interval [0, 2]")
    c = cheb_coefficients(tau_eff, order).coefficients
    p = cheb_sum(c, cheb_terms(lambda v: arr * v, np.ones_like(arr)))
    if np.isscalar(lam) or getattr(lam, "ndim", 0) == 0:
        return float(p)
    return p
