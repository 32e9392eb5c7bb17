"""Error certificates and minimum-order selection.

Frozen integers in here were cross-checked at development time against
50-digit arithmetic and against brute-force scans of the plain-float
formulas.
"""

import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chebheat.bounds
import chebheat.oracle
from chebheat.bessel import ORDER_CAP, bessel_ie_scaled
from chebheat.bounds import (_NEW_KINDS, _TAIL_MARGIN, AUTO, BoundKind, _first_order,
                             _log_bound_of, _log_closed_sq, _log_sq, _log_tail_sq,
                             _order_and_log_bound,
                             baseline_error_term, energy_ratio,
                             log_bound_value, min_order, select_bound, sup_error_bound,
                             true_min_order)
from chebheat.errors import OrderCapError
from chebheat.graphs import SparseSymMatrix, build_laplacian, erdos_renyi

from helpers import eval_scalar, reference_min_order

# mpmath: 2 exp(1/12 - 1) (1/2)^2 / (1! * 3/2)
G_1_1 = 0.13328321811494912
# mpmath: 2 exp(100/12 - 20) 10^11 / 10!
G_10_20 = 0.47260466835715895
# 1 / (1 - exp(b) / (2 + sqrt(5))) with b = 2 / (1 + sqrt(5))
E_0_0 = 1.7792691352989108

RATIO_200 = 200.0
ZERO_SUM = math.inf  # no energy ratio


def _ratio(values) -> float:
    # on an edgeless combinatorial Laplacian, whose kernel vector is ones(n)
    return energy_ratio(values, build_laplacian([], len(values)))


class TestSupErrorBound:
    def test_frozen_values(self):
        assert sup_error_bound(1, 1.0) == pytest.approx(G_1_1, rel=1e-14)
        assert sup_error_bound(10, 20.0) == pytest.approx(G_10_20, rel=1e-13)

    def test_validity_condition(self):
        # order must exceed tau/2 - 1, so it holds from floor(tau/2) on; K = 9 at
        # tau = 20 sits exactly on it
        with pytest.raises(ValueError):
            sup_error_bound(9, 20.0)
        sup_error_bound(10, 20.0)
        with pytest.raises(ValueError):
            sup_error_bound(4, 11.9)
        sup_error_bound(5, 11.9)
        with pytest.raises(ValueError, match="first order"):  # an overflowed scale
            sup_error_bound(ORDER_CAP, math.inf)

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


class TestBaselineCertificate:
    """The baseline remainder factor bounds the truncation's sup gap on [0, 2].

    ``auto`` reports this certificate wherever it certifies a smaller
    order, so it is held to the coefficient tail and to measured gaps, as
    acceptance test 3 holds the new family.
    """

    def test_coefficient_tail_below_certificate(self):
        # E_K = 2 sum_{k>K} Ie_k(tau) bounds the sup gap of the order-K
        # truncation; summed smallest first, at every order until it drops
        # below 1e-290
        worst = -math.inf
        for tau in np.logspace(-3.0, 3.3, 40):
            tau = float(tau)
            ie = bessel_ie_scaled(int(2.0 * tau + 60.0 * math.sqrt(tau)) + 100, tau)
            assert ie[-1] < 1e-300  # the terms left out cannot move any tail checked
            tails = 2.0 * np.cumsum(ie[::-1])[::-1]  # tails[k] = 2 sum_{j >= k} Ie_j
            order = 0
            while tails[order + 1] >= 1e-290:
                gap = math.log(tails[order + 1]) - 0.5 * _log_sq(False, order, tau)
                assert gap <= 0.0, (tau, order, gap)
                worst = max(worst, gap)
                order += 1
        assert worst < -1.0  # with room to spare: rounding cannot close the gap

    @pytest.mark.parametrize("tau, order", [(0.5, 6), (2.0, 10), (20.0, 25), (100.0, 60),
                                            (400.0, 145), (1000.0, 201)])
    def test_measured_sup_gap_below_certificate(self, tau, order):
        lam = np.linspace(0.0, 2.0, 4001)
        sup = float(np.max(np.abs(eval_scalar(tau, order, lam) - np.exp(-tau * lam))))
        certificate = math.exp(0.5 * _log_sq(False, order, tau))
        assert 1e-13 < certificate < 1.0  # a certificate that says something
        assert sup <= certificate + 1e-13, (sup, certificate)


def _reference_tails(tau: float, start: int) -> list:
    """``E_K = 2 sum_{k>K} Ie_k(tau)`` for ``K = 0 .. start - 1``, at 40 digits.

    mpmath's backward recurrence from ``start``, normalized by its own
    ``I_0``; past ``start`` the terms are below every tail compared.
    """
    with mp.workdps(40):
        t = mp.mpf(tau)
        f = [mp.mpf(0)] * (start + 2)
        f[start] = mp.mpf(1)
        for k in range(start, 0, -1):
            f[k - 1] = f[k + 1] + (2 * k / t) * f[k]
        ie0 = mp.besseli(0, t) * mp.exp(-t)
        scale = ie0 / f[0]
        tails, acc = [], mp.mpf(0)
        for k in range(start, 0, -1):
            acc += f[k]
            tails.append(2 * acc * scale)
        tails.reverse()
        # the identity Ie_0 + 2 sum_{k>0} Ie_k = 1 checks the normalization and the start
        assert abs(tails[0] + ie0 - 1) < mp.mpf(10) ** -35
    return tails


TAIL_TAUS = [float(t) for t in np.logspace(-3.0, math.log10(2e3), 12)]


class TestTailCertificate:
    """The tail kinds' summed coefficient tail ``E_K`` and what they build on it."""

    def test_inflated_tail_brackets_the_mpmath_tail(self):
        # at every order from 0 down to E_K = 1e-290: at least E_K, within twice
        # the margin of it, and the sum without the margin never reads more than
        # 1e-12 below, a thousandth of the margin
        worst, checked = -math.inf, 0
        for tau in TAIL_TAUS:
            log_sq = _log_tail_sq(tau)
            tails = _reference_tails(tau, int(tau + 40.0 * math.sqrt(tau) + 300.0))
            order = 0
            while tails[order] >= 1e-290:
                got = 0.5 * log_sq(order)  # log of the certified sup gap
                ref = float(mp.log(tails[order]))
                assert ref <= got <= ref + math.log1p(2.0 * _TAIL_MARGIN), (tau, order, got, ref)
                worst = max(worst, ref - got + math.log1p(_TAIL_MARGIN))
                order += 1
            checked += order
        assert checked > 4000
        assert worst < 1e-12, worst

    def test_never_looser_than_either_closed_form(self):
        for tau in TAIL_TAUS + [5000.0, 30000.0]:
            log_sq = _log_tail_sq(tau)
            first = _first_order(True, tau)
            for order in range(0, int(2.0 * tau) + 200, max(1, int(tau) // 50)):
                assert log_sq(order) <= _log_sq(False, order, tau)
                if order >= first:
                    assert log_sq(order) <= _log_sq(True, order, tau)

    def test_non_increasing_in_the_order(self):
        for tau in TAIL_TAUS:
            log_sq = _log_tail_sq(tau)
            values = [log_sq(k) for k in range(int(2.0 * tau) + 400)]
            assert all(a >= b for a, b in zip(values, values[1:])), tau

    @pytest.mark.parametrize("kind", list(BoundKind))
    def test_log_bound_value_is_the_searched_value(self, kind):
        # bit for bit at every order, also far below the float range: the
        # closure the search compares, and the value the search returns
        for tau in TAIL_TAUS:
            log_bound = _log_bound_of(kind, tau, RATIO_200)
            for order in range(_first_order(kind in _NEW_KINDS, tau), int(tau) + 200):
                got = log_bound_value(kind, order, tau, ratio=RATIO_200)
                assert got == log_bound(order), (tau, order)
                if order % 7 == 0:  # a tol that this order meets, down to the least float
                    tol = math.exp(min(max(got, -745.0), 700.0))
                    k, searched = _order_and_log_bound(kind, tau, tol, RATIO_200)
                    assert searched == log_bound_value(kind, k, tau, ratio=RATIO_200)
                    assert searched <= math.log(tol), (tau, order)

    def test_past_the_vector_cap_the_closed_forms_remain(self):
        # the cutoff passes a cap of 100 at both scales: from tau_eff 202 on
        # the new bound is not even valid below the cap
        with mock.patch.object(chebheat.bounds, "_VECTOR_CAP", 100):
            for tau in (150.0, 300.0):
                first = _first_order(True, tau, 100)
                log_sq = _log_tail_sq(tau)
                for order in range(0, 400, 13):
                    assert log_sq(order) == _log_closed_sq(order, tau, first)

    def test_frozen_lattice_orders(self):
        # the three lattice signals' energy ratios at the top scale, tau_eff 401.1
        # at the power estimate and 400 at the certified ceiling
        for ratio, tail, new, base in [(40000.0, 101, 214, 155),
                                       (88.41978544540146, 88, 211, 142),
                                       (1.0625000074491837, 78, 209, 132)]:
            for tau in (401.1, 400.0):
                assert min_order(BoundKind.TAIL_SPECIFIC, tau, 1e-8, ratio=ratio) == tail
            assert min_order(BoundKind.NEW_SPECIFIC, 401.1, 1e-8, ratio=ratio) == new
            assert min_order(BoundKind.BASELINE_SPECIFIC, 401.1, 1e-8, ratio=ratio) == base


class TestSignalStats:
    """The one statistic of a signal that the specific bounds read, :func:`energy_ratio`."""

    def test_energy_ratio(self):
        assert _ratio([1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("values", [[1.0, -1.0], [1.0, -1.0, 1e-170]])
    def test_zero_sum_leaves_no_specific_certificate(self, values):
        # an exact zero sum and one whose square underflows follow one rule
        s = _ratio(values)
        assert s == math.inf
        for kind in (BoundKind.NEW_SPECIFIC, BoundKind.BASELINE_SPECIFIC):
            with pytest.raises(ValueError, match="sum to zero"):
                min_order(kind, 5.0, 1e-8, ratio=s)
            with pytest.raises(ValueError, match="sum to zero"):
                log_bound_value(kind, 30, 5.0, ratio=s)

    def test_combinatorial_ratio_is_the_constant_kernel_expression(self):
        # n ||x||^2 / (sum x)^2 on the power-of-two scaled signal, bit for bit,
        # also with isolated nodes, whose entries of the constant kernel are 1 too
        L = build_laplacian(erdos_renyi(60, 0.05, seed=4), 64)
        rng = np.random.default_rng(8)
        signals = [rng.standard_normal(64), np.eye(1, 64, 5)[0], 1.0 + rng.standard_normal(64),
                   1e-200 * rng.standard_normal(64), 3e250 * rng.standard_normal(64)]
        for x in signals:
            xs = np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])
            s = float(np.sum(xs))
            expected = 64 * float(xs @ xs) / (s * s)
            assert energy_ratio(x, L).hex() == expected.hex()

    def test_unknown_kernel_leaves_no_specific_certificate(self):
        direct = SparseSymMatrix(2, [0, 2, 4], [0, 1, 0, 1], [1.0, -1.0, -1.0, 1.0])
        s = energy_ratio([1.0, 0.0], direct)
        assert s == math.inf
        assert select_bound(50.0, s) is BoundKind.NEW_GENERIC
        with pytest.raises(ValueError, match="no known kernel vector"):
            min_order(BoundKind.NEW_SPECIFIC, 5.0, 1e-8, ratio=s)

    def test_normalized_ratio_reads_the_degree_kernel(self):
        # a Dirac at node i: ||sqrt(d)||^2 / d_i = sum(d) / d_i, not n
        edges = [(0, 1), (0, 2), (0, 3), (3, 4)]
        L = build_laplacian(edges, 5, kind="normalized")
        assert energy_ratio(np.eye(1, 5, 0)[0], L) == pytest.approx(8 / 3)
        assert energy_ratio(np.eye(1, 5, 1)[0], L) == pytest.approx(8.0)

    def test_cauchy_schwarz_floor(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            v = rng.standard_normal(30)
            if abs(v.sum()) < 1e-9:
                continue
            assert _ratio(v) >= 1.0

    @pytest.mark.parametrize("factor", [2.0 ** 600, 2.0 ** -600, 1e-200, 1e160, 1e300])
    def test_energy_ratio_ignores_magnitude(self, factor):
        x = np.random.default_rng(3).standard_normal(50)
        ratio = _ratio(x)
        scaled = _ratio(factor * x)
        if math.frexp(factor)[0] == 0.5:  # a power of two scales exactly
            assert scaled == ratio
        else:
            assert scaled == pytest.approx(ratio, rel=1e-12)

    def test_energy_ratio_past_float_range_is_infinite(self):
        # the sum cancels to 1e-170 of the largest entry; its square underflows
        x = [1.0, -1.0, 1e-170]
        s = _ratio(x)
        assert sum(x) > 0.0 and s == math.inf
        assert select_bound(50.0, s) is BoundKind.NEW_GENERIC


class TestBoundValue:
    def test_specific_needs_stats(self):
        with pytest.raises(ValueError):
            log_bound_value(BoundKind.NEW_SPECIFIC, 8, 4.0)

    def test_generic_exceeds_specific_past_crossover(self):
        # tau' above ln(ratio)/4, so the signal factor beats exp(4 tau')
        tau = 3.0
        gen = log_bound_value(BoundKind.NEW_GENERIC, 8, tau)
        spec = log_bound_value(BoundKind.NEW_SPECIFIC, 8, tau, ratio=RATIO_200)
        assert spec < gen

    def test_baseline_kinds_finite_at_large_tau(self):
        v = math.exp(log_bound_value(BoundKind.BASELINE_SPECIFIC, 300, 900.0, ratio=RATIO_200))
        assert math.isfinite(v) and v > 0.0


class TestSelectBound:
    def test_crossover_quarter_log(self):
        # threshold for ratio 200 is ln(200)/4 = 1.3245793416370092
        thr = 0.25 * math.log(200.0)
        assert select_bound(thr - 1e-6, RATIO_200) is BoundKind.NEW_GENERIC
        assert select_bound(thr, RATIO_200) is BoundKind.NEW_SPECIFIC
        assert select_bound(thr + 1e-6, RATIO_200) is BoundKind.NEW_SPECIFIC

    def test_zero_sum_forces_generic(self):
        s = _ratio([1.0, -1.0])
        assert select_bound(50.0, s) is BoundKind.NEW_GENERIC


class TestMinOrder:
    def test_frozen_orders_at_tau_10(self):
        expected = {
            BoundKind.NEW_GENERIC: 26,
            BoundKind.NEW_SPECIFIC: 15,
            BoundKind.BASELINE_GENERIC: 37,
            BoundKind.BASELINE_SPECIFIC: 21,
            BoundKind.TAIL_GENERIC: 26,
            BoundKind.TAIL_SPECIFIC: 15,
        }
        for kind, k in expected.items():
            assert min_order(kind, 10.0, 1e-8, ratio=RATIO_200) == k

    def test_certified_at_returned_order(self):
        for kind in BoundKind:
            k = min_order(kind, 7.0, 1e-6, ratio=RATIO_200)
            assert log_bound_value(kind, k, 7.0, ratio=RATIO_200) <= math.log(1e-6)
            if k > 0:
                prev = log_bound_value(kind, k - 1, 7.0, ratio=RATIO_200) \
                    if kind not in (BoundKind.NEW_GENERIC, BoundKind.NEW_SPECIFIC) \
                    or k - 1 > 7.0 / 2.0 - 1.0 else math.inf
                assert prev > math.log(1e-6)

    def test_tau_zero_is_order_zero(self):
        for kind in BoundKind:
            assert min_order(kind, 0.0, 1e-12, ratio=RATIO_200) == 0

    def test_subnormal_tau_is_order_zero(self):
        # tau_eff/2 underflows to zero; treated as the zero-scale case. There
        # the bound is -inf for every kind before the ratio is read: new-specific
        # once raised for a missing or infinite ratio where base-specific did not
        for tau_eff in (0.0, 5e-324):
            for kind in BoundKind:
                for ratio in (RATIO_200, None, ZERO_SUM):
                    assert min_order(kind, tau_eff, 1e-12, ratio=ratio) == 0
                    assert log_bound_value(kind, 0, tau_eff, ratio=ratio) == -math.inf

    def test_monotone_in_tol(self):
        ks = [min_order(BoundKind.NEW_GENERIC, 5.0, tol) for tol in (1e-2, 1e-6, 1e-10)]
        assert ks[0] <= ks[1] <= ks[2]

    def test_huge_scale_stays_in_log_domain(self):
        assert min_order(BoundKind.NEW_SPECIFIC, 5000.0, 1e-6, ratio=RATIO_200) == 2509

    def test_cap_raises(self):
        with pytest.raises(OrderCapError):
            with mock.patch.object(chebheat.bounds, "ORDER_CAP", 10):
                min_order(BoundKind.NEW_GENERIC, 9.0, 1e-8)

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
                got = _order_or_error(min_order, kind, tau, tol, ratio=RATIO_200)
                assert got == reference_min_order(kind, tau, tol, ratio=RATIO_200), (tau, tol)

    @pytest.mark.parametrize("kind, tau_eff, tol, ratio, cap, expected", [
        # unreachable tolerances
        (BoundKind.NEW_GENERIC, 9.0, 1e-8, None, 10, OrderCapError),
        (BoundKind.BASELINE_SPECIFIC, 50.0, 1e-300, RATIO_200, 30, OrderCapError),
        # floor(tau_eff / 2) > cap: no valid order, so the energy ratio is never read
        (BoundKind.NEW_GENERIC, 45.0, 1e-5, None, 20, OrderCapError),
        (BoundKind.NEW_SPECIFIC, 1e5, 1e-5, None, ORDER_CAP, OrderCapError),
        (BoundKind.NEW_SPECIFIC, 1e5, 1e-5, ZERO_SUM, ORDER_CAP, OrderCapError),
        (BoundKind.NEW_SPECIFIC, math.inf, 1e-8, None, ORDER_CAP, OrderCapError),
        # an overflowed scale certifies no baseline order either
        (BoundKind.BASELINE_SPECIFIC, math.inf, 1e-8, RATIO_200, ORDER_CAP, OrderCapError),
        # a specific kind without a usable energy ratio
        (BoundKind.NEW_SPECIFIC, 5.0, 1e-5, ZERO_SUM, ORDER_CAP, ValueError),
        (BoundKind.BASELINE_SPECIFIC, 5.0, 1e-5, ZERO_SUM, ORDER_CAP, ValueError),
        (BoundKind.NEW_SPECIFIC, 5.0, 1e-5, None, ORDER_CAP, ValueError),
        (BoundKind.BASELINE_SPECIFIC, 5.0, 1e-5, None, ORDER_CAP, ValueError),
        # the first certified order, at the cap and below it
        (BoundKind.BASELINE_GENERIC, 1e-3, 0.1, None, 3, 3),
        (BoundKind.NEW_GENERIC, 1e-3, 0.1, None, 1, 0),
        (BoundKind.NEW_SPECIFIC, 10.0, 0.2, 1.0, ORDER_CAP, 5),
        (BoundKind.NEW_GENERIC, 0.125, 0.0625, None, 0, 0),
        # tau_eff / 2 lies between the cap and the cap + 1: the cap is the one valid order
        (BoundKind.NEW_SPECIFIC, 41.0, 1e3, RATIO_200, 20, 20),
    ])
    def test_edge_cases(self, kind, tau_eff, tol, ratio, cap, expected):
        with mock.patch.object(chebheat.bounds, "ORDER_CAP", cap):
            got = _order_or_error(min_order, kind, tau_eff, tol, ratio=ratio)
        assert got == _order_or_error(reference_min_order, kind, tau_eff, tol, ratio=ratio, cap=cap)
        assert (got[0] if isinstance(got, tuple) else got) == expected

    @given(st.sampled_from(list(BoundKind)),
           st.one_of(st.floats(min_value=1e-3, max_value=2e3), st.sampled_from([0.0, 5e-324])),
           st.floats(min_value=1e-14, max_value=1e-1),
           st.sampled_from([None, RATIO_200, ZERO_SUM, 7 * 2.5 / (0.75 * 0.75)]),
           st.one_of(st.just(ORDER_CAP), st.integers(min_value=0, max_value=60)))
    @settings(max_examples=300, deadline=None)
    def test_random(self, kind, tau_eff, tol, ratio, cap):
        with mock.patch.object(chebheat.bounds, "ORDER_CAP", cap):
            got = _order_or_error(min_order, kind, tau_eff, tol, ratio=ratio)
        assert got == _order_or_error(reference_min_order, kind, tau_eff, tol, ratio=ratio, cap=cap)


class TestTrueMinOrder:
    def test_path_two_frozen(self):
        L = build_laplacian([(0, 1)], 2)
        x = np.array([1.0, 0.0])
        assert true_min_order(L, x, 1.0, 1e-5, lambda_max=2.0) == 3
        assert true_min_order(L, x, 1.0, 1e-10, lambda_max=2.0) == 6

    def test_never_exceeds_certified(self):
        L = build_laplacian(erdos_renyi(40, 0.15, seed=6), 40)
        x = np.random.default_rng(7).standard_normal(40)
        ratio = energy_ratio(x, L)
        lam = 1.01 * float(np.linalg.eigvalsh(L.to_dense()).max())
        for tau in (0.05, 0.4, 2.0):
            k_true = true_min_order(L, x, tau, 1e-5, lambda_max=lam)
            for kind in BoundKind:
                assert k_true <= min_order(kind, lam * tau / 2.0, 1e-5, ratio=ratio)

    def test_cap_raises(self):
        L = build_laplacian([(0, 1)], 2)
        x = np.array([1.0, 0.0])
        with mock.patch.object(chebheat.bounds, "ORDER_CAP", 5):
            with pytest.raises(OrderCapError, match="no order up to 5"):
                true_min_order(L, x, 1.0, 1e-10, lambda_max=2.0)
        assert true_min_order(L, x, 1.0, 1e-10, lambda_max=2.0) == 6

    def test_tau_zero(self):
        L = build_laplacian([(0, 1)], 2)
        assert true_min_order(L, np.array([1.0, 2.0]), 0.0, 1e-12, lambda_max=2.0) == 0

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
