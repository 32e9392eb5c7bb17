"""A-priori truncation-error bounds and minimum-order selection.

Two bound families are implemented. The first controls the sup norm of
the Chebyshev remainder directly through the factorial decay of the
coefficients; the second is the classical spectral-projection estimate
built from a fixed geometric rate. Each family comes in a *generic*
variant (worst case over signals, carries an ``exp(4 tau)`` factor) and
a *specific* variant that replaces that factor with the measured energy
ratio ``n ||x||^2 / (sum x)^2`` of the actual input signal.

All bound arithmetic runs in the log domain so that extreme scales
neither overflow nor collapse to NaN; only the final value is
exponentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bessel import ORDER_CAP, log_factorial
from .chebyshev import cheb_coefficients, cheb_partial_sums, cheb_terms
from .errors import OrderCapError
from .graphs import GraphSignal

__all__ = ["BoundKind", "AUTO", "SignalStats", "sup_error_bound", "baseline_error_term",
           "log_bound_value", "select_bound", "min_order", "true_min_order"]


class BoundKind(str, Enum):
    """Which truncation-error certificate to use."""

    NEW_GENERIC = "new-generic"
    NEW_SPECIFIC = "new-specific"
    BASELINE_GENERIC = "base-generic"
    BASELINE_SPECIFIC = "base-specific"


# sentinel accepted wherever a BoundKind is expected; resolves per signal
AUTO = "auto"

_LN2 = math.log(2.0)
_LN4 = math.log(4.0)
# geometric-rate constants of the baseline estimate
_B = 2.0 / (1.0 + math.sqrt(5.0))
_D = math.exp(_B) / (2.0 + math.sqrt(5.0))
_LOG_D = math.log(_D)
_LOG_1MD = math.log1p(-_D)


@dataclass(frozen=True)
class SignalStats:
    """The aggregates of a signal that the specific bounds consume.

    :meth:`from_signal` takes ``norm_sq`` and ``component_sum`` of
    ``2^-e x`` with ``2^e`` just above ``max|x|``. The energy ratio does
    not depend on scale, and a power-of-two scaling is exact, so it gets
    the bits the plain sums would give wherever those are finite and
    normal, and stays defined where they would overflow or underflow.
    """

    n: int
    norm_sq: float
    component_sum: float

    @classmethod
    def from_signal(cls, signal: GraphSignal) -> "SignalStats":
        x = signal.values
        x = np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])
        return cls(n=signal.n, norm_sq=float(x @ x), component_sum=float(np.sum(x)))

    @property
    def energy_ratio(self) -> float:
        """``n * ||x||^2 / (sum x)^2``; at least 1 by Cauchy-Schwarz.

        ``inf`` when ``(sum x)^2`` is zero: the sum is exactly zero, or it
        cancelled to below about 1e-154 of the largest entry.
        """
        sum_sq = self.component_sum * self.component_sum
        return self.n * self.norm_sq / sum_sq if sum_sq > 0.0 else math.inf


def _check_order(order: int, tau_eff: float) -> int:
    order = int(order)
    if order < 0:
        raise ValueError("order must be non-negative")
    if order <= tau_eff / 2.0 - 1.0:
        raise ValueError(
            f"order {order} violates the validity condition order > tau_eff/2 - 1 "
            f"(tau_eff={tau_eff})"
        )
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

    Valid whenever ``order > tau_eff / 2 - 1``; raises otherwise. Returns
    exactly 0 at ``tau_eff = 0`` where the truncation is the identity.
    """
    tau_eff = float(tau_eff)
    if tau_eff < 0.0:
        raise ValueError("tau_eff must be non-negative")
    order = _check_order(order, tau_eff)
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
    if tau_eff < 0.0:
        raise ValueError("tau_eff must be non-negative")
    order = int(order)
    if order < 0:
        raise ValueError("order must be non-negative")
    return math.exp(_log_baseline_error_term(order, tau_eff))


def _ratio_log(stats: SignalStats | None, kind: BoundKind) -> float:
    if stats is None:
        raise ValueError(f"{kind.value} bound needs signal statistics")
    if stats.energy_ratio == math.inf:
        raise ValueError(f"{kind.value} bound is undefined for a signal whose components "
                         f"sum to zero (or cancel past the float range)")
    return math.log(stats.energy_ratio)


_NEW_KINDS = (BoundKind.NEW_GENERIC, BoundKind.NEW_SPECIFIC)


def _log_signal_term(kind: BoundKind, tau_eff: float, stats: SignalStats | None) -> float:
    # the factor a certificate pays for the signal: exp(4 tau) generic, the energy ratio specific
    if kind in (BoundKind.NEW_GENERIC, BoundKind.BASELINE_GENERIC):
        return 4.0 * tau_eff
    return _ratio_log(stats, kind)


def _log_sq(new: bool, order: int, tau_eff: float) -> float:
    # log of the squared remainder factor of the new (sup-norm) or the baseline family
    if new:
        return 2.0 * _log_sup_error_bound(order, tau_eff)
    return _LN4 + 2.0 * _log_baseline_error_term(order, tau_eff)


def log_bound_value(kind: BoundKind, order: int, tau_eff: float,
                    stats: SignalStats | None = None) -> float:
    """Natural log of the output-relative error bound.

    Stays finite where the plain value would overflow; returns ``-inf``
    at ``tau_eff = 0``.
    """
    kind = BoundKind(kind)
    tau_eff = float(tau_eff)
    if tau_eff < 0.0:
        raise ValueError("tau_eff must be non-negative")
    new = kind in _NEW_KINDS
    if new:
        order = _check_order(order, tau_eff)
    else:
        order = int(order)
        if order < 0:
            raise ValueError("order must be non-negative")
        if tau_eff / 2.0 == 0.0:
            return -math.inf  # zero scale: truncation error is identically zero
    return _log_sq(new, order, tau_eff) + _log_signal_term(kind, tau_eff, stats)


def select_bound(tau_eff: float, stats: SignalStats) -> BoundKind:
    """Pick the sharper of the two new certificates for this signal.

    The specific variant wins exactly when ``tau_eff`` reaches a quarter
    of the log energy ratio (ties go to specific); an infinite ratio, from
    a sum that is zero or cancels, forces the generic one.
    """
    if float(tau_eff) >= 0.25 * math.log(stats.energy_ratio):
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
              stats: SignalStats | None = None, cap: int = ORDER_CAP) -> int:
    """Smallest order whose certificate meets ``tol``.

    Zero scale short-circuits to 0 for every kind (the truncation is
    exact there, whatever the certificate says). Otherwise the search
    starts at the first valid order and relies on each family being
    non-increasing in the order ``k`` from there on:

    * new family, ``k + 1 > tau_eff / 2``: from ``k`` to ``k + 1`` every
      term of the log sup bound falls: ``half^2 / (k + 2)`` falls,
      ``(k + 1) log(half) - log k!`` changes by ``log(half / (k + 1)) < 0``
      and ``-log(k + 1 - half)`` falls;
    * baseline family: up to ``k = 2 tau_eff`` it is the ``logaddexp`` of
      a Gaussian term that falls with ``k`` and the geometric term at
      ``2 tau_eff``, so it does not rise and stays at least that term;
      beyond, it is the geometric term ``k log D - log(1 - D)``, affine
      with slope ``log D < 0``, so it starts below that term and falls.

    So the first certified order is bracketed by doubling and then
    bisected. Each order is evaluated with the scalar operations of
    :func:`log_bound_value`, so every value compared with ``log(tol)``
    has the bits a linear scan would compare; the steps between orders
    dwarf rounding, and the tests hold the result to a linear scan.
    """
    kind = BoundKind(kind)
    tau_eff = float(tau_eff)
    if tau_eff < 0.0:
        raise ValueError("tau_eff must be non-negative")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if tau_eff / 2.0 == 0.0:
        return 0
    new = kind in _NEW_KINDS
    start = int(math.floor(tau_eff / 2.0)) + 1 if new else 0
    order = cap + 1
    if start <= cap:  # with no valid order to try, the signal statistics are never read
        signal = _log_signal_term(kind, tau_eff, stats)
        log_tol = math.log(tol)
        # orders past the cap count as certified so that the search ends there
        order = _first_true(
            lambda k: k > cap or _log_sq(new, k, tau_eff) + signal <= log_tol, start)
    if order > cap:
        raise OrderCapError(
            f"no order up to {cap} certifies tol={tol} for {kind.value} at tau_eff={tau_eff}"
        )
    return order


def _growing_coefficients(tau_eff: float, cap: int):
    # c[0], c[1], ... up to order cap; the vector is recomputed at double
    # the length whenever the scan runs past it, and each order takes its
    # coefficient from the first vector long enough to hold it
    done, size = 0, min(cap, 64)
    while True:
        yield from cheb_coefficients(tau_eff, size)[done:]
        if size == cap:
            return
        done, size = size + 1, min(cap, 2 * size)


def true_min_order(op, signal, tau: float, tol: float,
                   lambda_max: float | None = None, cap: int = ORDER_CAP) -> int:
    """Smallest order whose *measured* error meets ``tol``.

    Measured against the dense oracle in the spectral domain: the
    production recurrence and sum run with the rescaled operator applied
    as the diagonal ``clip(2 lambda / lambda_hat, 0, 2)`` in the
    eigenbasis, and ``lambda_hat`` is chosen and checked by the same rule
    as a diffusion run, so the result is directly comparable with
    :func:`min_order` outputs. The signal is checked as a diffusion run
    checks it, before any dense work. Limited to oracle-sized operators.
    """
    from .diffusion import _as_signal, _resolve_lambda
    from .oracle import dense_spectrum

    tau = float(tau)
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x = _as_signal(signal).values
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
    sums = cheb_partial_sums(_growing_coefficients(lam_hat * tau / 2.0, cap),
                             cheb_terms(lambda v: d * v, xhat))
    for order, approx in enumerate(sums):
        diff = target - approx
        if float(diff @ diff) <= tol * denom:
            return order
    raise OrderCapError(
        f"no order up to {cap} reaches measured tol={tol} at tau={tau}"
    )
