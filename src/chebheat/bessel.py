"""Exponentially scaled modified Bessel functions of the first kind.

Everything downstream consumes the whole vector ``exp(-tau) * I_k(tau)``
for ``k = 0..k_max``, so that is the only evaluation shape offered. One
backward-recurrence pass produces all orders at once; the scaling keeps
every value inside ``(0, 1]`` no matter how large ``tau`` gets.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import _check_scales, _count

__all__ = ["bessel_ie_scaled", "log_factorial", "ORDER_CAP"]

# hard ceiling on any requested polynomial / Bessel order
ORDER_CAP = 20000

_RESCALE_LIMIT = 1e250
_RESCALE = 1e-250
# log(k!) of the exact integer factorial, k = 0..20
_LOG_FACTORIALS = [math.log(math.factorial(k)) for k in range(21)]


def log_factorial(k: int) -> float:
    """Natural log of ``k!``, exact through the integer range.

    Reads the logs of the exact integer factorials for ``k <= 20`` from a
    table and uses ``lgamma`` beyond, which keeps the relative error at a
    few ulps. ``k`` is a count (:func:`chebheat.graphs._count`); a
    non-negative int, what every caller in the package passes, skips the
    call.
    """
    if type(k) is not int or k < 0:
        k = _count(k, "k")
    if k <= 20:
        return _LOG_FACTORIALS[k]
    return math.lgamma(k + 1)


def _series_vector(k_max: int, tau: float) -> np.ndarray:
    # direct power series; all terms positive so there is no cancellation
    out = np.zeros(k_max + 1)
    half = tau / 2.0
    h2 = half * half
    log_half = math.log(half)
    for k in range(k_max + 1):
        lead = k * log_half - log_factorial(k) - tau
        if lead < -745.0:
            break  # underflow; later orders only get smaller
        term = math.exp(lead)
        acc = term
        i = 0
        while True:
            i += 1
            term *= h2 / (i * (k + i))
            acc += term
            if term <= acc * 1e-17:
                break
        out[k] = acc
    return out


def _miller_vector(k_max: int, tau: float) -> np.ndarray:
    # backward recurrence started well above both k_max and the turning
    # point near tau, normalized with  Ie_0 + 2 * sum_k Ie_k = 1
    margin = int(math.ceil(10.0 + 2.0 * math.sqrt(k_max + tau)))
    start = max(k_max, int(math.ceil(tau))) + margin
    # The recurrence runs on Python floats, the same IEEE doubles as numpy
    # scalars at a fraction of the cost, with the two previous values in
    # locals. Its ratios 2 k / tau come from one array pass: 2.0 * k is
    # exact and the division is rounded once, as in the scalar expression,
    # so each has its bits. f holds orders start, start - 1, ..., 0; the
    # normalization stays in numpy, on the ascending vector. A rescale
    # skips the leading entries that earlier ones took to 0.0, which it
    # would keep at 0.0: it costs the entries still above underflow, not
    # the whole list, so small scales at long lengths stay linear.
    f = [1e-30]
    zeros = 0  # f[:zeros] are 0.0
    prev, cur = 0.0, 1e-30
    for ratio in (np.arange(start, 0, -1) * 2.0 / tau).tolist():
        nxt = prev + ratio * cur
        if nxt > _RESCALE_LIMIT:
            f[zeros:] = [v * _RESCALE for v in f[zeros:]]
            while f[zeros] == 0.0:
                zeros += 1
            prev, cur = prev * _RESCALE, cur * _RESCALE
            nxt = prev + ratio * cur
        f.append(nxt)
        prev, cur = cur, nxt
    f.reverse()
    f.append(0.0)
    f = np.array(f)
    total = f[0] + 2.0 * float(np.sum(f[1 : start + 1]))
    return f[: k_max + 1] / total


def bessel_ie_scaled(k_max: int, tau: float) -> np.ndarray:
    """Vector of ``exp(-tau) * I_k(tau)`` for ``k = 0..k_max``.

    Parameters
    ----------
    k_max : int
        Largest order, a count (:func:`chebheat.graphs._count`) at most
        ``ORDER_CAP``.
    tau : float
        Finite, non-negative argument, checked by the scale rule
        (:func:`chebheat.graphs._check_scales`); no overflow up to ``tau =
        1e4`` and beyond thanks to the exponential scaling.

    Returns
    -------
    numpy.ndarray
        ``k_max + 1`` values in ``(0, 1]``, strictly decreasing in ``k``
        (down to underflow level for extreme orders).
    """
    k_max = _count(k_max, "k_max")
    if k_max > ORDER_CAP:
        raise ValueError(f"k_max={k_max} exceeds the internal cap {ORDER_CAP}")
    [tau] = _check_scales([tau])
    if tau / 2.0 == 0.0:  # includes subnormals whose half underflows
        out = np.zeros(k_max + 1)
        out[0] = 1.0
        return out
    if tau < 1.0:
        return _series_vector(k_max, tau)
    return _miller_vector(k_max, tau)
