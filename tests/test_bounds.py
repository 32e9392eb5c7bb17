"""Error certificates and minimum-order selection.

Frozen integers in here were cross-checked at development time against
50-digit arithmetic and against brute-force scans of the plain-float
formulas.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chebheat.bounds
import chebheat.oracle
from chebheat.bessel import ORDER_CAP
from chebheat.bounds import (AUTO, BoundKind, SignalStats, baseline_error_term,
                             log_bound_value, min_order, select_bound, sup_error_bound,
                             true_min_order)
from chebheat.errors import OrderCapError
from chebheat.graphs import GraphSignal, build_laplacian, erdos_renyi

from helpers import reference_min_order

# mpmath: 2 exp(1/12 - 1) (1/2)^2 / (1! * 3/2)
G_1_1 = 0.13328321811494912
# mpmath: 2 exp(100/12 - 20) 10^11 / 10!
G_10_20 = 0.47260466835715895
# 1 / (1 - exp(b) / (2 + sqrt(5))) with b = 2 / (1 + sqrt(5))
E_0_0 = 1.7792691352989108

RATIO_200 = SignalStats(n=200, norm_sq=1.0, component_sum=1.0)  # energy ratio 200
ZERO_SUM = SignalStats(n=5, norm_sq=1.0, component_sum=0.0)  # no energy ratio


def _stats(values) -> SignalStats:
    return SignalStats.from_signal(GraphSignal(values))


class TestSupErrorBound:
    def test_frozen_values(self):
        assert sup_error_bound(1, 1.0) == pytest.approx(G_1_1, rel=1e-14)
        assert sup_error_bound(10, 20.0) == pytest.approx(G_10_20, rel=1e-13)

    def test_validity_condition(self):
        # order must exceed tau/2 - 1; K = 9 at tau = 20 sits exactly on it
        with pytest.raises(ValueError):
            sup_error_bound(9, 20.0)
        sup_error_bound(10, 20.0)

    def test_tau_zero(self):
        assert sup_error_bound(0, 0.0) == 0.0

    def test_decreasing_in_order(self):
        vals = [sup_error_bound(k, 8.0) for k in range(4, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestBaselineErrorTerm:
    def test_zero_order_zero_tau(self):
        assert baseline_error_term(0, 0.0) == pytest.approx(E_0_0, rel=1e-14)

    def test_branch_boundary_is_continuousish(self):
        # the piecewise switch sits at order = 2 tau; both sides stay positive
        # and finite there
        tau = 6.0
        lo = baseline_error_term(12, tau)
        hi = baseline_error_term(13, tau)
        assert lo > hi > 0.0

    def test_decays_geometrically_far_field(self):
        tau = 2.0
        r = baseline_error_term(30, tau) / baseline_error_term(29, tau)
        d = math.exp(2.0 / (1.0 + math.sqrt(5.0))) / (2.0 + math.sqrt(5.0))
        assert r == pytest.approx(d, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            baseline_error_term(-1, 1.0)
        with pytest.raises(ValueError):
            baseline_error_term(3, -1.0)


class TestSignalStats:
    def test_energy_ratio(self):
        s = SignalStats.from_signal(GraphSignal([1.0, 1.0, 1.0, 1.0]))
        assert s.energy_ratio == pytest.approx(1.0)

    @pytest.mark.parametrize("values", [[1.0, -1.0], [1.0, -1.0, 1e-170]])
    def test_zero_sum_leaves_no_specific_certificate(self, values):
        # an exact zero sum and one whose square underflows follow one rule
        s = _stats(values)
        assert s.energy_ratio == math.inf
        for kind in (BoundKind.NEW_SPECIFIC, BoundKind.BASELINE_SPECIFIC):
            with pytest.raises(ValueError, match="sum to zero"):
                min_order(kind, 5.0, 1e-8, stats=s)
            with pytest.raises(ValueError, match="sum to zero"):
                log_bound_value(kind, 30, 5.0, stats=s)

    def test_cauchy_schwarz_floor(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            v = rng.standard_normal(30)
            if abs(v.sum()) < 1e-9:
                continue
            assert _stats(v).energy_ratio >= 1.0

    @pytest.mark.parametrize("factor", [2.0 ** 600, 2.0 ** -600, 1e-200, 1e160, 1e300])
    def test_energy_ratio_ignores_magnitude(self, factor):
        x = np.random.default_rng(3).standard_normal(50)
        ratio = _stats(x).energy_ratio
        scaled = _stats(factor * x).energy_ratio
        if math.frexp(factor)[0] == 0.5:  # a power of two scales exactly
            assert scaled == ratio
        else:
            assert scaled == pytest.approx(ratio, rel=1e-12)

    def test_energy_ratio_past_float_range_is_infinite(self):
        # the sum cancels to 1e-170 of the largest entry; its square underflows
        s = _stats([1.0, -1.0, 1e-170])
        assert s.component_sum > 0.0 and s.energy_ratio == math.inf
        assert select_bound(50.0, s) is BoundKind.NEW_GENERIC


class TestBoundValue:
    def test_specific_needs_stats(self):
        with pytest.raises(ValueError):
            log_bound_value(BoundKind.NEW_SPECIFIC, 8, 4.0)

    def test_generic_exceeds_specific_past_crossover(self):
        # tau' above ln(ratio)/4, so the signal factor beats exp(4 tau')
        tau = 3.0
        gen = log_bound_value(BoundKind.NEW_GENERIC, 8, tau)
        spec = log_bound_value(BoundKind.NEW_SPECIFIC, 8, tau, stats=RATIO_200)
        assert spec < gen

    def test_baseline_kinds_finite_at_large_tau(self):
        v = math.exp(log_bound_value(BoundKind.BASELINE_SPECIFIC, 300, 900.0, stats=RATIO_200))
        assert math.isfinite(v) and v > 0.0


class TestSelectBound:
    def test_crossover_quarter_log(self):
        # threshold for ratio 200 is ln(200)/4 = 1.3245793416370092
        thr = 0.25 * math.log(200.0)
        assert select_bound(thr - 1e-6, RATIO_200) is BoundKind.NEW_GENERIC
        assert select_bound(thr, RATIO_200) is BoundKind.NEW_SPECIFIC
        assert select_bound(thr + 1e-6, RATIO_200) is BoundKind.NEW_SPECIFIC

    def test_zero_sum_forces_generic(self):
        s = _stats([1.0, -1.0])
        assert select_bound(50.0, s) is BoundKind.NEW_GENERIC


class TestMinOrder:
    def test_frozen_orders_at_tau_10(self):
        expected = {
            BoundKind.NEW_GENERIC: 26,
            BoundKind.NEW_SPECIFIC: 15,
            BoundKind.BASELINE_GENERIC: 37,
            BoundKind.BASELINE_SPECIFIC: 21,
        }
        for kind, k in expected.items():
            assert min_order(kind, 10.0, 1e-8, stats=RATIO_200) == k

    def test_certified_at_returned_order(self):
        for kind in BoundKind:
            k = min_order(kind, 7.0, 1e-6, stats=RATIO_200)
            assert log_bound_value(kind, k, 7.0, stats=RATIO_200) <= math.log(1e-6)
            if k > 0:
                prev = log_bound_value(kind, k - 1, 7.0, stats=RATIO_200) \
                    if kind in (BoundKind.BASELINE_GENERIC, BoundKind.BASELINE_SPECIFIC) \
                    or k - 1 > 7.0 / 2.0 - 1.0 else math.inf
                assert prev > math.log(1e-6)

    def test_tau_zero_is_order_zero(self):
        for kind in BoundKind:
            assert min_order(kind, 0.0, 1e-12, stats=RATIO_200) == 0

    def test_subnormal_tau_is_order_zero(self):
        # tau_eff/2 underflows to zero; treated as the zero-scale case
        for kind in BoundKind:
            assert min_order(kind, 5e-324, 1e-12, stats=RATIO_200) == 0
            assert log_bound_value(kind, 0, 5e-324, stats=RATIO_200) == -math.inf

    def test_monotone_in_tol(self):
        ks = [min_order(BoundKind.NEW_GENERIC, 5.0, tol) for tol in (1e-2, 1e-6, 1e-10)]
        assert ks[0] <= ks[1] <= ks[2]

    def test_huge_scale_stays_in_log_domain(self):
        assert min_order(BoundKind.NEW_SPECIFIC, 5000.0, 1e-6, stats=RATIO_200) == 2509

    def test_cap_raises(self):
        with pytest.raises(OrderCapError):
            min_order(BoundKind.NEW_GENERIC, 9.0, 1e-8, cap=10)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            min_order(BoundKind.NEW_GENERIC, 1.0, 0.0)


def _order_or_error(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except (ValueError, OrderCapError) as exc:
        return type(exc), str(exc)


class TestMinOrderMatchesLinearScan:
    """The bracketing search returns what the linear scan returned, or raises as it did."""

    @pytest.mark.parametrize("kind", list(BoundKind))
    def test_grid(self, kind):
        taus = [0.0, 5e-324, 20.0, math.nextafter(20.0, 0.0)]
        taus += np.logspace(-3.0, math.log10(2e3), 40).tolist()
        for tau in taus:
            for tol in np.logspace(-14.0, -1.0, 14).tolist():
                got = _order_or_error(min_order, kind, tau, tol, stats=RATIO_200)
                assert got == reference_min_order(kind, tau, tol, stats=RATIO_200), (tau, tol)

    @pytest.mark.parametrize("kind, tau_eff, tol, stats, cap, expected", [
        # unreachable tolerances
        (BoundKind.NEW_GENERIC, 9.0, 1e-8, None, 10, OrderCapError),
        (BoundKind.BASELINE_SPECIFIC, 50.0, 1e-300, RATIO_200, 30, OrderCapError),
        # floor(tau_eff / 2) + 1 > cap: no valid order, so the statistics are never read
        (BoundKind.NEW_GENERIC, 45.0, 1e-5, None, 20, OrderCapError),
        (BoundKind.NEW_SPECIFIC, 1e5, 1e-5, None, ORDER_CAP, OrderCapError),
        (BoundKind.NEW_SPECIFIC, 1e5, 1e-5, ZERO_SUM, ORDER_CAP, OrderCapError),
        # a specific kind without a usable energy ratio
        (BoundKind.NEW_SPECIFIC, 5.0, 1e-5, ZERO_SUM, ORDER_CAP, ValueError),
        (BoundKind.BASELINE_SPECIFIC, 5.0, 1e-5, ZERO_SUM, ORDER_CAP, ValueError),
        (BoundKind.NEW_SPECIFIC, 5.0, 1e-5, None, ORDER_CAP, ValueError),
        (BoundKind.BASELINE_SPECIFIC, 5.0, 1e-5, None, ORDER_CAP, ValueError),
        # the first order certifies, and the cap is that order
        (BoundKind.BASELINE_GENERIC, 1e-3, 0.1, None, 3, 3),
        (BoundKind.NEW_GENERIC, 1e-3, 0.1, None, 1, 1),
    ])
    def test_edge_cases(self, kind, tau_eff, tol, stats, cap, expected):
        got = _order_or_error(min_order, kind, tau_eff, tol, stats=stats, cap=cap)
        assert got == _order_or_error(reference_min_order, kind, tau_eff, tol, stats=stats, cap=cap)
        assert (got[0] if isinstance(got, tuple) else got) == expected

    @given(st.sampled_from(list(BoundKind)),
           st.one_of(st.floats(min_value=1e-3, max_value=2e3), st.sampled_from([0.0, 5e-324])),
           st.floats(min_value=1e-14, max_value=1e-1),
           st.sampled_from([None, RATIO_200, ZERO_SUM, SignalStats(7, 2.5, 0.75)]),
           st.one_of(st.just(ORDER_CAP), st.integers(min_value=0, max_value=60)))
    @settings(max_examples=300, deadline=None)
    def test_random(self, kind, tau_eff, tol, stats, cap):
        assert (_order_or_error(min_order, kind, tau_eff, tol, stats=stats, cap=cap)
                == _order_or_error(reference_min_order, kind, tau_eff, tol, stats=stats, cap=cap))


class TestTrueMinOrder:
    def test_path_two_frozen(self):
        L = build_laplacian([(0, 1)], 2)
        x = GraphSignal([1.0, 0.0])
        assert true_min_order(L, x, 1.0, 1e-5, lambda_max=2.0) == 3
        assert true_min_order(L, x, 1.0, 1e-10, lambda_max=2.0) == 6

    def test_never_exceeds_certified(self):
        L = build_laplacian(erdos_renyi(40, 0.15, seed=6), 40)
        x = GraphSignal(np.random.default_rng(7).standard_normal(40))
        stats = SignalStats.from_signal(x)
        lam = 1.01 * float(np.linalg.eigvalsh(L.to_dense()).max())
        for tau in (0.05, 0.4, 2.0):
            k_true = true_min_order(L, x, tau, 1e-5, lambda_max=lam)
            for kind in BoundKind:
                assert k_true <= min_order(kind, lam * tau / 2.0, 1e-5, stats=stats)

    def test_tau_zero(self):
        L = build_laplacian([(0, 1)], 2)
        assert true_min_order(L, GraphSignal([1.0, 2.0]), 0.0, 1e-12, lambda_max=2.0) == 0

    def test_rejects_non_finite_signal_before_any_work(self, monkeypatch):
        # unchecked, a NaN entry ran all 20000 orders and raised OrderCapError
        def no_work(*args):
            raise AssertionError("dense or recurrence work on an invalid signal")

        monkeypatch.setattr(chebheat.oracle, "dense_spectrum", no_work)
        monkeypatch.setattr(chebheat.bounds, "cheb_partial_sums", no_work)
        L = build_laplacian(erdos_renyi(50, 0.2, seed=3), 50)
        x = np.random.default_rng(0).standard_normal(50)
        for bad in (np.nan, np.inf):
            x[7] = bad
            with pytest.raises(ValueError, match="non-finite"):
                true_min_order(L, x, 1.0, 1e-8)
