"""Acceptance gate: one test per shipped claim, each with a runtime budget.

Every test prints one ``ACCEPTANCE n (<name>): PASS`` or ``FAIL`` line.
Heavy shared work (the 20-graph order table) is computed once and
reused; the dense-oracle spectrum cache makes the graph set cheap to
revisit across criteria.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from chebheat.bessel import bessel_ie_scaled, log_factorial
from chebheat.bounds import BoundKind, SignalStats, min_order, sup_error_bound
from chebheat.chebyshev import cheb_coefficients
from chebheat.cli import bound_table_data
from chebheat.diffusion import (estimate_lambda_max, expm_multiply, expm_multiscale,
                                make_plan, measure_errors)
from chebheat.graphs import GraphSignal, SparseSymMatrix, build_laplacian, erdos_renyi
from chebheat.oracle import coeff_integral, exact_diffusion, tail_sum

BASE_SEED = 7
TAU_GRID = (0.1, 1.0, 5.0, 20.0)
_shared = {}


@contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"ACCEPTANCE {num} ({name}): PASS [{elapsed:.1f}s]")


def trial_graph(t, n=200, p=0.05):
    return build_laplacian(erdos_renyi(n, p, BASE_SEED + t), n)


def trial_signal(t, n=200):
    rng = np.random.default_rng(BASE_SEED + t + 10000)
    return GraphSignal(rng.standard_normal(n))


def fig_table():
    if "table" not in _shared:
        taus = [float(t) for t in np.logspace(-2.0, 2.0, 25)]
        _shared["table"] = bound_table_data(200, 0.05, 20, taus, 1e-5,
                                            seed=BASE_SEED, with_true=True)
    return _shared["table"]


def test_1_coefficient_identity():
    # quadrature of the defining integral against the Bessel route
    with criterion(1, "coefficient identity", 10.0):
        for tau in TAU_GRID:
            c = cheb_coefficients(tau, 60)
            for k in range(61):
                assert abs(coeff_integral(k, tau) - c[k]) <= 1e-10, (k, tau)


def test_2_coefficient_sandwich():
    # c_k = (-1)^k d_k cbar_k with cbar_k = 2 (tau/2)^k exp(-tau) / k! and
    # 1 <= d_k <= min(exp((tau/2)^2/(k+1)), cosh tau); one-ulp-scale slack
    # on both edges for the float evaluation
    with criterion(2, "coefficient sandwich", 5.0):
        for tau in TAU_GRID:
            c = cheb_coefficients(tau, 60)
            for k in range(61):
                assert c[k] * (-1.0) ** k > 0.0, (k, tau)
                log_cbar = math.log(2.0) + k * math.log(tau / 2.0) - tau - log_factorial(k)
                d = math.exp(math.log(abs(c[k])) - log_cbar)
                cap = min(math.exp((tau / 2.0) ** 2 / (k + 1)), math.cosh(tau))
                assert d >= 1.0 - 1e-10, (k, tau, d)
                assert d <= cap * (1.0 + 1e-10), (k, tau, d, cap)


def test_3_sup_bound_validity():
    # certified sup gap dominates both the measured gap (up to double
    # precision dust) and the coefficient tail sum
    with criterion(3, "sup bound validity", 30.0):
        lam = np.linspace(0.0, 2.0, 1000)
        t = lam - 1.0
        for tau in TAU_GRID:
            h = np.exp(-tau * lam)
            k_min = int(tau // 2) + 1
            k_max = k_min + 149
            c = cheb_coefficients(tau, k_max)
            p = np.full_like(lam, 0.5 * c[0])
            t_prev = np.ones_like(lam)
            t_cur = t.copy()
            p += c[1] * t_cur
            for k in range(2, k_max + 1):
                t_prev, t_cur = t_cur, 2.0 * t * t_cur - t_prev
                p += c[k] * t_cur
                if k >= k_min:
                    g = sup_error_bound(k, tau)
                    sup = float(np.max(np.abs(h - p)))
                    assert sup <= g + 1e-13, (tau, k, sup, g)
                    assert tail_sum(k, tau) <= g, (tau, k)


def test_4_certified_diffusion():
    with criterion(4, "certified diffusion", 120.0):
        for t in range(20):
            op = trial_graph(t)
            sig = trial_signal(t)
            for tau in (0.05, 0.5, 5.0):
                _, rep = expm_multiply(op, sig, tau, tol=1e-5)
                _, eta = measure_errors(op, sig, tau, rep.order,
                                        lambda_max=rep.lambda_max)
                assert eta <= 1e-5, (t, tau, eta)


def test_5_order_table_reproduction():
    # medians over 20 graphs: the measured minimum never beats the new
    # bounds, and the new bounds never lose to their baselines, for
    # every scale up to 10
    with criterion(5, "order table reproduction", 600.0):
        data = fig_table()
        small = [j for j, tau in enumerate(data["taus"]) if tau <= 10.0]
        assert len(small) >= 19
        med = {kind: np.median(data["orders"][kind], axis=0) for kind in BoundKind}
        med_true = np.median(data["true"], axis=0)
        for j in small:
            assert med_true[j] <= med[BoundKind.NEW_SPECIFIC][j], data["taus"][j]
            assert med[BoundKind.NEW_SPECIFIC][j] <= med[BoundKind.BASELINE_SPECIFIC][j], \
                data["taus"][j]
            assert med[BoundKind.NEW_GENERIC][j] <= med[BoundKind.BASELINE_GENERIC][j], \
                data["taus"][j]


def test_6_specific_beats_generic_past_crossover():
    with criterion(6, "specific vs generic", 60.0):
        data = fig_table()
        checked = 0
        for t in range(20):
            threshold = 0.25 * math.log(data["ratios"][t])
            for j in range(len(data["taus"])):
                if data["tau_effs"][t, j] < threshold:
                    continue
                checked += 1
                assert data["orders"][BoundKind.NEW_SPECIFIC][t, j] \
                    <= data["orders"][BoundKind.NEW_GENERIC][t, j]
                assert data["orders"][BoundKind.BASELINE_SPECIFIC][t, j] \
                    <= data["orders"][BoundKind.BASELINE_GENERIC][t, j]
        assert checked > 200  # the condition really does hold on most of the grid


def test_7_multiscale_factorization(monkeypatch):
    with criterion(7, "multiscale factorization", 120.0):
        n = 2500
        op = build_laplacian(erdos_renyi(n, 0.02, BASE_SEED), n)
        sig = GraphSignal(np.eye(1, n, 0)[0])
        lam = estimate_lambda_max(op)
        rng = np.random.default_rng(BASE_SEED)
        scales = [float(s) for s in 10.0 ** rng.uniform(-3.0, 1.0, 20)]

        plan = make_plan(op, sig, scales, 1e-5, lambda_max=lam)
        from chebheat.chebyshev import build_basis, combine
        scaled = op.scaled(2.0 / lam)
        t0 = time.perf_counter()
        basis = build_basis(scaled, sig.values, plan.order)
        basis_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for tau_eff in plan.tau_effs:
            combine(basis, cheb_coefficients(tau_eff, plan.order))
        per_scale_s = (time.perf_counter() - t0) / len(scales)
        assert per_scale_s <= 0.15 * basis_s, (per_scale_s, basis_s)

        counts = {"matvecs": 0}
        inner = SparseSymMatrix.matvec

        def counting_matvec(self, x):
            counts["matvecs"] += 1
            return inner(self, x)

        monkeypatch.setattr(SparseSymMatrix, "matvec", counting_matvec)
        results = expm_multiscale(op, sig, scales, tol=1e-5, lambda_max=lam)
        assert counts["matvecs"] == results[0][1].order
        assert len(results) == 20


def test_8_order_robust_to_tolerance():
    # tightening the tolerance from 1e-3 to 2^-24 barely moves the
    # certified order once the effective scale is fixed
    with criterion(8, "order vs tolerance", 60.0):
        for t in range(5):
            n = 500
            op = build_laplacian(erdos_renyi(n, 0.02, BASE_SEED + t), n)
            tau_eff = estimate_lambda_max(op) * 4.5 / 2.0  # deep-diffusion regime
            stats = SignalStats.from_signal(trial_signal(t, n))
            for kind in (BoundKind.NEW_SPECIFIC, BoundKind.NEW_GENERIC):
                k_tight = min_order(kind, tau_eff, 2.0 ** -24, stats=stats)
                k_loose = min_order(kind, tau_eff, 1e-3, stats=stats)
                assert k_tight <= 1.25 * k_loose, (t, kind, k_tight, k_loose)


def test_9_oracle_equivalence():
    # at tol 1e-12 the sparse pipeline and the dense spectral oracle
    # agree to a squared relative error of 1e-10
    with criterion(9, "oracle equivalence", 30.0):
        rng = np.random.default_rng(2026)
        for i in range(10):
            n = int(rng.integers(10, 51))
            p = float(rng.uniform(0.1, 0.35))
            op = build_laplacian(erdos_renyi(n, p, 100 + i), n)
            x = GraphSignal(np.random.default_rng(200 + i).standard_normal(n))
            tau = float(rng.uniform(0.1, 3.0))
            y, rep = expm_multiply(op, x, tau, tol=1e-12)
            w = exact_diffusion(op, x.values, tau)
            diff = y - w
            eta = float(diff @ diff) / float(w @ w)
            assert eta <= 1e-10, (i, n, tau, eta)
