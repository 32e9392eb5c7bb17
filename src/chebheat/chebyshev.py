"""Chebyshev expansion of the heat kernel on a [0, 2] spectrum.

For an operator whose spectrum lives in ``[0, 2]`` the scalar function
``exp(-tau * lam)`` expands as

    h(lam) = c[0] / 2 + sum_{k >= 1} c[k] * T_k(lam - 1)

with ``c[k] = (-1)^k * 2 * exp(-tau) * I_k(tau)``. The coefficient vector
stores ``c[0]`` unhalved; the halving happens wherever the series is
evaluated. Basis vectors ``T_k(op - I) x`` depend on the operator and the
signal only, so one basis serves every diffusion scale. A scale needs
only its coefficient vector, so each basis vector is added to every
output as soon as the recurrence yields it, and none is stored.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .bessel import bessel_ie_scaled
from .graphs import SparseSymMatrix

__all__ = ["cheb_coefficients", "cheb_terms", "cheb_partial_sums", "build_basis", "combine"]


def cheb_coefficients(tau_eff: float, order: int) -> np.ndarray:
    """Expansion coefficients of ``exp(-tau_eff * lam)`` up to ``order``.

    A read-only vector of ``order + 1`` entries; ``c[0]`` is stored
    unhalved, and entry ``k`` carries the sign ``(-1)^k`` for any
    positive scale.

    Parameters
    ----------
    tau_eff : float
        Effective (rescaled) diffusion scale, non-negative.
    order : int
        Truncation order.
    """
    order = int(order)
    if order < 0:
        raise ValueError("order must be non-negative")
    c = 2.0 * bessel_ie_scaled(order, tau_eff)
    c[1::2] *= -1.0
    c.flags.writeable = False
    return c


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


def build_basis(op: SparseSymMatrix, x, order: int):
    """The ``order + 1`` basis rows ``T_k(op - I) x``, drawn lazily.

    ``op`` must already be rescaled so its spectrum sits inside
    ``[0, 2]``. Drawing every row costs exactly ``order`` matrix-vector
    products; the order and the signal shape are checked at the call.
    """
    order = int(order)
    if order < 0:
        raise ValueError("order must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.n,):
        raise ValueError(f"signal of shape {x.shape} does not match operator size {op.n}")
    return islice(cheb_terms(op.matvec, x), order + 1)


def combine(basis, c) -> np.ndarray:
    """Contract coefficient vectors against basis rows in one pass.

    ``basis`` is any iterable of rows ``t_0, t_1, ...``, such as
    :func:`build_basis`; ``c`` is one coefficient vector, giving an output
    of shape ``(n,)``, or an ``(m, K + 1)`` array, giving ``(m, n)``. Row
    ``k`` is drawn only once column ``k`` exists, added to every output
    and dropped: each output gets ``c[0]/2 t_0``, then ``+= c[k] * t_k``
    in ascending ``k``, as :func:`cheb_partial_sums` sums them. Rows that
    run out before the coefficients raise ``ValueError``.
    """
    c = np.asarray(c, dtype=np.float64)
    coeffs = c.reshape(-1, c.shape[-1])
    rows = iter(basis)
    for k, column in enumerate(coeffs.T.tolist()):
        t = next(rows, None)
        if t is None:
            raise ValueError(f"basis of order {k - 1} cannot serve coefficients "
                             f"of order {c.shape[-1] - 1}")
        if k == 0:
            out, scratch = np.multiply.outer(0.5 * coeffs[:, 0], t), np.empty_like(t)
            continue
        for y, ck in zip(out, column):
            np.multiply(t, ck, out=scratch)
            y += scratch
    return out.reshape(c.shape[:-1] + t.shape)
