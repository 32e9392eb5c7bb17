"""A-priori truncation-error bounds and minimum-order selection.

Every bound here caps the sup norm, over the rescaled spectrum [0, 2],
of the gap between ``exp(-tau_eff lam)`` and its order-``K`` Chebyshev
truncation. Three families are implemented:

* *new*, the paper's closed form: it bounds the coefficient tail through
  the factorial decay of the coefficients, and holds from order
  ``floor(tau_eff / 2)`` on;
* *baseline*, the classical spectral-projection estimate built from a
  fixed geometric rate, which holds at every order;
* *tail*, the coefficient tail itself. With ``s = lam - 1`` in [-1, 1]
  the expansion is ``c_0 / 2 + sum_k c_k T_k(s)`` with
  ``|c_k| = 2 Ie_k(tau_eff)``, ``Ie_k(t) = exp(-t) I_k(t)``, and there
  ``|T_k(s)| = |cos(k arccos s)| <= 1``. So the gap is at most
  ``E_K = sum_{k>K} |c_k| = 2 sum_{k>K} Ie_k(tau_eff)`` (Trefethen,
  *Approximation Theory and Approximation Practice*, 2013).

The tail is summed from one :func:`~chebheat.bessel.bessel_ie_scaled`
vector to a cutoff ``M``: the first order from ``floor(tau_eff / 2)`` on
at which the new bound, itself a bound on ``2 sum_{k>M} Ie_k``, is at
most 1e-300. The terms ``K + 1 .. M`` are added smallest first, and the
new bound at ``M`` stands for the rest. The sum is inflated by the
relative margin ``_TAIL_MARGIN`` (1e-9) and by ``2^-1021`` for each
coefficient, which covers an entry lost to underflow. Against a 40-digit
mpmath ``E_K``, at 12 values of ``tau_eff`` from 1e-3 to 2e3 and every
order down to ``E_K = 1e-290``, the sum without the margin read at most
2.4e-13 below it on the power-series path below ``tau_eff = 1``, and at
most 1.1e-14 below it on the recurrence path above (compared in log, so
with the log's own rounding). The tests hold that deficit below 1e-12,
a thousandth of the margin, and the
inflated sum at or above the reference and within twice the margin of
it. A tail kind takes the minimum of its sum and both closed forms
(the new one where it holds), so it is never looser than either family;
each of the three is non-increasing in ``K``, and so is their minimum.
Where ``M`` would pass ``ORDER_CAP``, the longest vector, the tail kind
is the minimum of the two closed forms.

Each family comes in a *generic* variant (worst case over signals,
carries an ``exp(4 tau)`` factor) and a *specific* variant that replaces
that factor with the measured energy ratio ``||k||^2 ||x||^2 / <x, k>^2``
of the actual input signal, for a vector ``k`` in the operator's kernel:
the output keeps the input's component along ``k``, so
``||exp(-tau L) x||^2 >= <x, k>^2 / ||k||^2``. On a combinatorial
Laplacian ``k`` is the constant vector and the ratio is
``n ||x||^2 / (sum x)^2``.

All bound arithmetic runs in the log domain so that extreme scales
neither overflow nor collapse to NaN; only the final value is
exponentiated.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .bessel import ORDER_CAP, bessel_ie_scaled, log_factorial
from .chebyshev import cheb_coefficients, cheb_partial_sums, cheb_terms
from .errors import OrderCapError
from .graphs import _signal

__all__ = ["BoundKind", "AUTO", "energy_ratio", "sup_error_bound", "baseline_error_term",
           "log_bound_value", "select_bound", "min_order", "true_min_order"]


class BoundKind(str, Enum):
    """Which truncation-error certificate to use."""

    NEW_GENERIC = "new-generic"
    NEW_SPECIFIC = "new-specific"
    BASELINE_GENERIC = "base-generic"
    BASELINE_SPECIFIC = "base-specific"
    TAIL_GENERIC = "tail-generic"
    TAIL_SPECIFIC = "tail-specific"


# sentinel accepted wherever a BoundKind is expected; resolves per signal
AUTO = "auto"

_LN2 = math.log(2.0)
_LN4 = math.log(4.0)
# geometric-rate constants of the baseline estimate
_B = 2.0 / (1.0 + math.sqrt(5.0))
_D = math.exp(_B) / (2.0 + math.sqrt(5.0))
_LOG_D = math.log(_D)
_LOG_1MD = math.log1p(-_D)
# the summed coefficient tail: its relative rounding margin, the new
# bound's value at the cutoff, and what each summed coefficient may have
# lost to underflow (see the module docstring)
_TAIL_MARGIN = 1e-9
_LOG_TAIL_CUTOFF = math.log(1e-300)
_TAIL_UNDERFLOW = 2.0 ** -1021
# the longest Bessel vector the tail sums, whatever cap min_order searches to:
# a kind's value at an order does not depend on how far the search may go
_VECTOR_CAP = ORDER_CAP


def energy_ratio(signal, op) -> float:
    """The one number of a signal that the specific bounds read.

    ``||k||^2 ||x||^2 / <x, k>^2`` for the operator's ``kernel_vector``
    ``k``, at least 1 by Cauchy-Schwarz; on the constant ``k`` of a
    combinatorial Laplacian that is ``n ||x||^2 / (sum x)^2``, bit for
    bit. The sums are taken on ``2^-e x`` with ``2^e`` just above
    ``max|x|``. The ratio does not depend on scale, and a power-of-two
    scaling is exact, so it gets the bits the plain sums would give
    wherever those are finite and normal, and stays defined where they
    would overflow or underflow. It is ``inf`` when the operator has no
    kernel vector, or when ``<x, k>^2`` is zero: the inner product is
    exactly zero, or it cancelled to below about 1e-154 of the largest
    entry.
    """
    x = _signal(signal)
    if x.size != op.n:
        raise ValueError(f"signal length {x.size} does not match operator size {op.n}")
    k = op.kernel_vector
    if k is None:
        return math.inf
    x = np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])
    dot = float(np.sum(x * k))
    dot_sq = dot * dot
    return float(np.sum(k * k)) * float(x @ x) / dot_sq if dot_sq > 0.0 else math.inf


def _first_order(new: bool, tau_eff: float, cap: int | None = None) -> int | float:
    """The first order at which a family's bound holds, after checking ``tau_eff``.

    The baseline holds at every order. The new family holds where its
    tail, a geometric series of ratio ``(tau_eff / 2) / (order + 1)``,
    converges: ``order + 1 > tau_eff / 2``, so from ``floor(tau_eff / 2)``
    on. When that is past ``cap`` (default ``ORDER_CAP``, read at each
    call), or the scale is infinite, it is ``inf``: no order the package
    runs is valid, and the scale is never converted to int.
    """
    if tau_eff < 0.0:
        raise ValueError("tau_eff must be non-negative")
    if not new:
        return 0
    half = tau_eff / 2.0
    return math.floor(half) if half < (ORDER_CAP if cap is None else cap) + 1 else math.inf


def _valid_order(new: bool, order: int, tau_eff: float) -> int:
    order = int(order)
    first = _first_order(new, tau_eff)
    if order < first:
        raise ValueError(f"order {order} is below {first}, the first order at which the "
                         f"{'new' if new else 'baseline'} bound holds at tau_eff={tau_eff}")
    return order


def _log_sup_error_bound(order: int, tau_eff: float) -> float:
    half = tau_eff / 2.0
    if half == 0.0:  # exact zero or a subnormal whose half underflows
        return -math.inf
    return (
        _LN2
        + half * half / (order + 2.0)
        - tau_eff
        + (order + 1.0) * math.log(half)
        - log_factorial(order)
        - math.log(order + 1.0 - half)
    )


def sup_error_bound(order: int, tau_eff: float) -> float:
    """Certified sup-norm gap between the kernel and its truncation.

    Valid from order ``floor(tau_eff / 2)`` on, where ``order + 1 >
    tau_eff / 2``; raises below it. Returns exactly 0 at ``tau_eff = 0``
    where the truncation is the identity.
    """
    tau_eff = float(tau_eff)
    order = _valid_order(True, order, tau_eff)
    return math.exp(_log_sup_error_bound(order, tau_eff))


def _log_baseline_error_term(order: int, tau_eff: float) -> float:
    if order <= 2.0 * tau_eff:  # boundary belongs to the near-field branch
        if tau_eff == 0.0:
            gauss = -math.inf
        else:
            gauss = -_B * (order + 1.0) ** 2 / (2.0 * tau_eff) + math.log1p(
                math.sqrt(math.pi * tau_eff / (2.0 * _B))
            )
        geom = 2.0 * tau_eff * _LOG_D - _LOG_1MD
        return float(np.logaddexp(gauss, geom))
    return order * _LOG_D - _LOG_1MD


def baseline_error_term(order: int, tau_eff: float) -> float:
    """The remainder factor of the baseline certificate.

    Piecewise in the order: a Gaussian-plus-geometric expression up to
    and including ``2 * tau_eff``, a pure geometric decay beyond.
    """
    tau_eff = float(tau_eff)
    order = _valid_order(False, order, tau_eff)
    return math.exp(_log_baseline_error_term(order, tau_eff))


_NEW_KINDS = (BoundKind.NEW_GENERIC, BoundKind.NEW_SPECIFIC)
_TAIL_KINDS = (BoundKind.TAIL_GENERIC, BoundKind.TAIL_SPECIFIC)
_GENERIC_KINDS = (BoundKind.NEW_GENERIC, BoundKind.BASELINE_GENERIC, BoundKind.TAIL_GENERIC)


def _log_sq(new: bool, order: int, tau_eff: float) -> float:
    # log of the squared remainder factor of the new (sup-norm) or the baseline family
    if new:
        return 2.0 * _log_sup_error_bound(order, tau_eff)
    return _LN4 + 2.0 * _log_baseline_error_term(order, tau_eff)


def _log_closed_sq(order: int, tau_eff: float, first: int | float) -> float:
    # the smaller closed form: the baseline, or the new bound from its first valid order on
    base = _log_sq(False, order, tau_eff)
    return min(base, _log_sq(True, order, tau_eff)) if order >= first else base


def _log_tail_sq(tau_eff: float):
    """``order -> log`` of the tail family's squared factor, at a positive ``tau_eff``.

    Builds the one Bessel vector that every order's sum reads; the
    module docstring gives the cutoff, the margin and the fallback.
    """
    first = _first_order(True, tau_eff, _VECTOR_CAP)
    cut = _VECTOR_CAP + 1
    if first <= _VECTOR_CAP:
        cut = _first_true(lambda m: m > _VECTOR_CAP
                          or _log_sup_error_bound(m, tau_eff) <= _LOG_TAIL_CUTOFF, first)
    if cut > _VECTOR_CAP:
        return lambda k: _log_closed_sq(k, tau_eff, first)
    ie = bessel_ie_scaled(cut, tau_eff)
    sums = np.cumsum(ie[:0:-1])[::-1]  # sums[k] = ie[cut] + ... + ie[k + 1], in that order
    rest = math.exp(_log_sup_error_bound(cut, tau_eff))

    def log_sq(k):
        closed = _log_closed_sq(k, tau_eff, first)
        if k >= cut:
            return closed
        tail = ((2.0 * float(sums[k]) + rest) * (1.0 + _TAIL_MARGIN)
                + (cut - k + 1) * _TAIL_UNDERFLOW)
        return min(closed, 2.0 * math.log(tail))
    return log_sq


def _log_bound_of(kind: BoundKind, tau_eff: float, ratio: float | None):
    """``order -> log`` of the kind's output-relative bound, at a positive ``tau_eff``.

    The family's squared factor plus the factor the certificate pays for
    the signal: ``exp(4 tau_eff)`` generic, the energy ratio specific.
    Reads the ratio once, on the call, and a tail kind builds its one
    Bessel vector once; every order is then scalar work.
    """
    if kind in _GENERIC_KINDS:
        signal = 4.0 * tau_eff
    elif ratio is None:
        raise ValueError(f"{kind.value} bound needs the signal's energy ratio")
    elif ratio == math.inf:
        raise ValueError(f"{kind.value} bound is undefined: the operator has no known kernel "
                         f"vector, or the signal has no component along it (its components "
                         f"sum to zero on a combinatorial Laplacian, or cancel past the "
                         f"float range)")
    else:
        signal = math.log(ratio)
    if kind in _TAIL_KINDS:
        log_sq = _log_tail_sq(tau_eff)
        return lambda k: log_sq(k) + signal
    new = kind in _NEW_KINDS
    return lambda k: _log_sq(new, k, tau_eff) + signal


def log_bound_value(kind: BoundKind, order: int, tau_eff: float,
                    ratio: float | None = None) -> float:
    """Natural log of the output-relative error bound.

    ``ratio`` is the signal's :func:`energy_ratio`, read by the specific
    kinds only. Stays finite where the plain value would overflow;
    returns ``-inf`` for every kind at a zero scale (``tau_eff / 2 ==
    0``), where the truncation is exact, before the ratio is read.
    Everywhere else it is the value :func:`min_order` compares at that
    order, bit for bit.
    """
    kind = BoundKind(kind)
    tau_eff = float(tau_eff)
    order = _valid_order(kind in _NEW_KINDS, order, tau_eff)
    if tau_eff / 2.0 == 0.0:
        return -math.inf
    return _log_bound_of(kind, tau_eff, ratio)(order)


def select_bound(tau_eff: float, ratio: float) -> BoundKind:
    """Pick the sharper of the two new certificates for this signal.

    The specific variant wins exactly when ``tau_eff`` reaches a quarter
    of the log energy ratio (ties go to specific); an infinite ratio, from
    an operator with no kernel vector or a signal with no component along
    it, forces the generic one. Every family pays the same signal term,
    so the same variant is the sharper certificate of each family, at
    every order; ``auto`` runs that variant's tail kind.
    """
    if float(tau_eff) >= 0.25 * math.log(ratio):
        return BoundKind.NEW_SPECIFIC
    return BoundKind.NEW_GENERIC


def _first_true(pred, start: int) -> int:
    """Smallest ``k >= start`` with ``pred(k)``, for a ``pred`` that stays true once true.

    Brackets the answer by doubling the step from ``start``, then
    bisects: about ``2 log2(k - start)`` calls of ``pred``.
    """
    lo, hi = start - 1, start  # pred fails at every order through lo
    while not pred(hi):
        lo, hi = hi, 2 * hi - start + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def min_order(kind: BoundKind, tau_eff: float, tol: float,
              ratio: float | None = None) -> int:
    """Smallest order whose certificate meets ``tol``.

    Raises ``OrderCapError`` when no order up to ``ORDER_CAP``, read at
    each call, does.

    Zero scale short-circuits to 0 for every kind (the truncation is
    exact there, whatever the certificate says). Otherwise the search
    starts at the first valid order: 0 for the baseline and tail
    families, and ``floor(tau_eff / 2)``, the first ``k`` with
    ``k + 1 > tau_eff / 2``, for the new family. When that is past the
    cap, or the scale is infinite, no order is tried and the energy ratio
    is never read. A tail kind builds its one Bessel vector once per
    call. The search relies on each family being non-increasing in the
    order ``k`` from its first valid order on:

    * new family, ``k + 1 > tau_eff / 2``: from ``k`` to ``k + 1`` every
      term of the log sup bound falls: ``half^2 / (k + 2)`` falls,
      ``(k + 1) log(half) - log k!`` changes by ``log(half / (k + 1)) < 0``
      and ``-log(k + 1 - half)`` falls;
    * baseline family: up to ``k = 2 tau_eff`` it is the ``logaddexp`` of
      a Gaussian term that falls with ``k`` and the geometric term at
      ``2 tau_eff``, so it does not rise and stays at least that term;
      beyond, it is the geometric term ``k log D - log(1 - D)``, affine
      with slope ``log D < 0``, so it starts below that term and falls;
    * tail family: the minimum of both closed forms and the summed tail,
      whose partial sums only grow as ``k`` falls, and whose underflow
      allowance grows with the count of summed terms.

    So the first certified order is bracketed by doubling and then
    bisected. Each order is evaluated with the scalar operations of
    :func:`log_bound_value`, so every value compared with ``log(tol)``
    has the bits a linear scan would compare; the steps between orders
    dwarf rounding, and the tests hold the result to a linear scan.
    """
    return _order_and_log_bound(kind, tau_eff, tol, ratio)[0]


def _order_and_log_bound(kind: BoundKind, tau_eff: float, tol: float,
                         ratio: float | None) -> tuple[int, float]:
    """:func:`min_order` and the log of the certificate there, from one closure.

    A tail kind builds its one Bessel vector once for both. The log is
    ``log_bound_value(kind, order, tau_eff, ratio)`` bit for bit.
    """
    kind = BoundKind(kind)
    tau_eff = float(tau_eff)
    start = _first_order(kind in _NEW_KINDS, tau_eff)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if tau_eff / 2.0 == 0.0:
        return 0, -math.inf
    order = ORDER_CAP + 1
    if start <= ORDER_CAP:  # with no valid order to try, the energy ratio is never read
        log_tol = math.log(tol)
        log_bound = _log_bound_of(kind, tau_eff, ratio)
        # orders past the cap count as certified so that the search ends there
        order = _first_true(lambda k: k > ORDER_CAP or log_bound(k) <= log_tol, start)
    if order > ORDER_CAP:
        raise OrderCapError(
            f"no order up to {ORDER_CAP} certifies tol={tol} for {kind.value} at tau_eff={tau_eff}"
        )
    return order, log_bound(order)


def _growing_coefficients(tau_eff: float):
    # c[0], c[1], ... up to order ORDER_CAP; the vector is recomputed at
    # double the length whenever the scan runs past it, and each order takes
    # its coefficient from the first vector long enough to hold it
    done, size = 0, min(ORDER_CAP, 64)
    while True:
        yield from cheb_coefficients(tau_eff, size)[done:]
        if size == ORDER_CAP:
            return
        done, size = size + 1, min(ORDER_CAP, 2 * size)


def true_min_order(op, signal, tau: float, tol: float,
                   lambda_max: float | None = None) -> int:
    """Smallest order whose *measured* error meets ``tol``.

    Measured against the dense oracle in the spectral domain: the
    production recurrence and sum run with the rescaled operator applied
    as the diagonal ``clip(2 lambda / lambda_hat, 0, 2)`` in the
    eigenbasis. ``lambda_hat`` is chosen as a run with one of the paper's
    four kinds chooses it: the given ``lambda_max``, checked as a
    diffusion run checks it, else
    :func:`~chebheat.diffusion.estimate_lambda_max`. A default ``auto``
    run rescales by the certified ceiling instead; pass its report's
    ``lambda_max`` to compare with its orders. The signal is checked as
    a diffusion run checks it, before any dense work. Limited to
    oracle-sized operators.
    """
    from .diffusion import _resolve_lambda
    from .oracle import dense_spectrum

    tau = float(tau)
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x = _signal(signal)
    spec = dense_spectrum(op)
    if x.shape != spec.eigenvalues.shape:
        raise ValueError("signal length does not match operator size")
    lam_hat, _ = _resolve_lambda(op, lambda_max)
    xhat = spec.vectors.T @ x
    target = np.exp(-tau * spec.eigenvalues) * xhat
    denom = float(target @ target)
    if denom == 0.0:
        raise ValueError("diffused signal underflowed to zero; relative error undefined")
    scale = 2.0 / lam_hat if lam_hat > 0.0 else 0.0
    d = np.clip(scale * spec.eigenvalues, 0.0, 2.0)
    sums = cheb_partial_sums(_growing_coefficients(lam_hat * tau / 2.0),
                             cheb_terms(lambda v: d * v, xhat))
    for order, approx in enumerate(sums):
        diff = target - approx
        if float(diff @ diff) <= tol * denom:
            return order
    raise OrderCapError(
        f"no order up to {ORDER_CAP} reaches measured tol={tol} at tau={tau}"
    )
