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

__all__ = ["BoundKind", "AUTO", "SignalStats", "sup_error_bound", "input_relative_bound",
           "baseline_error_term", "bound_value", "log_bound_value", "select_bound",
           "min_order", "true_min_order"]


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
    """The aggregates of a signal that the specific bounds consume."""

    n: int
    norm_sq: float
    component_sum: float

    @classmethod
    def from_signal(cls, signal: GraphSignal) -> "SignalStats":
        return cls(n=signal.n, norm_sq=signal.norm_sq, component_sum=signal.component_sum)

    @classmethod
    def from_values(cls, values) -> "SignalStats":
        return cls.from_signal(GraphSignal(values))

    @property
    def energy_ratio(self) -> float:
        """``n * ||x||^2 / (sum x)^2``; at least 1 by Cauchy-Schwarz."""
        if self.component_sum == 0.0:
            raise ValueError("energy ratio undefined: signal components sum to zero")
        return self.n * self.norm_sq / (self.component_sum * self.component_sum)


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


def input_relative_bound(order: int, tau_eff: float) -> float:
    """Bound on the squared error relative to the input energy."""
    tau_eff = float(tau_eff)
    if tau_eff < 0.0:
        raise ValueError("tau_eff must be non-negative")
    order = _check_order(order, tau_eff)
    return math.exp(2.0 * _log_sup_error_bound(order, tau_eff))


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
    return math.log(stats.energy_ratio)


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
    if kind in (BoundKind.NEW_GENERIC, BoundKind.NEW_SPECIFIC):
        order = _check_order(order, tau_eff)
        log_sq = 2.0 * _log_sup_error_bound(order, tau_eff)
        if kind is BoundKind.NEW_GENERIC:
            return log_sq + 4.0 * tau_eff
        return log_sq + _ratio_log(stats, kind)
    order = int(order)
    if order < 0:
        raise ValueError("order must be non-negative")
    log_sq = _LN4 + 2.0 * _log_baseline_error_term(order, tau_eff)
    if tau_eff / 2.0 == 0.0:
        return -math.inf  # zero scale: truncation error is identically zero
    if kind is BoundKind.BASELINE_GENERIC:
        return log_sq + 4.0 * tau_eff
    return log_sq + _ratio_log(stats, kind)


def bound_value(kind: BoundKind, order: int, tau_eff: float,
                stats: SignalStats | None = None) -> float:
    """Output-relative squared-error bound for one certificate kind."""
    return math.exp(log_bound_value(kind, order, tau_eff, stats))


def select_bound(tau_eff: float, stats: SignalStats) -> BoundKind:
    """Pick the sharper of the two new certificates for this signal.

    The specific variant wins exactly when ``tau_eff`` reaches a quarter
    of the log energy ratio (ties go to specific); a zero component sum
    forces the generic one.
    """
    if stats.component_sum == 0.0:
        return BoundKind.NEW_GENERIC
    if float(tau_eff) >= 0.25 * math.log(stats.energy_ratio):
        return BoundKind.NEW_SPECIFIC
    return BoundKind.NEW_GENERIC


def min_order(kind: BoundKind, tau_eff: float, tol: float,
              stats: SignalStats | None = None, cap: int = ORDER_CAP) -> int:
    """Smallest order whose certificate meets ``tol``.

    A linear scan from the first valid order; the bounds are eventually
    monotone but not unimodal enough near the start to trust bisection.
    Zero scale short-circuits to 0 for every kind (the truncation is
    exact there, whatever the certificate says).
    """
    kind = BoundKind(kind)
    tau_eff = float(tau_eff)
    if tau_eff < 0.0:
        raise ValueError("tau_eff must be non-negative")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if tau_eff / 2.0 == 0.0:
        return 0
    if kind in (BoundKind.NEW_GENERIC, BoundKind.NEW_SPECIFIC):
        start = max(0, int(math.floor(tau_eff / 2.0)) + 1)
    else:
        start = 0
    log_tol = math.log(tol)
    for order in range(start, cap + 1):
        if log_bound_value(kind, order, tau_eff, stats) <= log_tol:
            return order
    raise OrderCapError(
        f"no order up to {cap} certifies tol={tol} for {kind.value} at tau_eff={tau_eff}"
    )


def _growing_coefficients(tau_eff: float, cap: int):
    # c[0], c[1], ... up to order cap; the vector is recomputed at double
    # the length whenever the scan runs past it, and each order takes its
    # coefficient from the first vector long enough to hold it
    done, size = 0, min(cap, 64)
    while True:
        yield from cheb_coefficients(tau_eff, size).coefficients[done:]
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
    :func:`min_order` outputs. Limited to oracle-sized operators.
    """
    from .diffusion import DEFAULT_SEED, _resolve_lambda
    from .oracle import dense_spectrum

    tau = float(tau)
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x = signal.values if isinstance(signal, GraphSignal) else np.asarray(signal, dtype=np.float64)
    spec = dense_spectrum(op)
    if x.shape != spec.eigenvalues.shape:
        raise ValueError("signal length does not match operator size")
    lam_hat, _ = _resolve_lambda(op, lambda_max, DEFAULT_SEED)
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
