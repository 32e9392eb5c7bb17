"""Scaled Bessel vectors against an mpmath reference and known identities."""

import math

import numpy as np
import pytest

from chebheat.bessel import ORDER_CAP, bessel_ie_scaled, log_factorial

from helpers import ie_reference, reference_miller_vector

# 50-digit mpmath evaluations of exp(-tau) * I_k(tau)
IE_0_AT_1 = 0.46575960759364044
IE_1_AT_1 = 0.20791041534970845
IE_5_AT_10 = 0.035284293614933963
IE_0_AT_QUARTER = 0.79101716213971936


def test_frozen_values():
    v = bessel_ie_scaled(1, 1.0)
    assert v[0] == pytest.approx(IE_0_AT_1, rel=1e-14)
    assert v[1] == pytest.approx(IE_1_AT_1, rel=1e-14)
    assert bessel_ie_scaled(5, 10.0)[5] == pytest.approx(IE_5_AT_10, rel=1e-13)
    # tau < 1 goes through the series path
    assert bessel_ie_scaled(0, 0.25)[0] == pytest.approx(IE_0_AT_QUARTER, rel=1e-14)


def test_miller_bits_match_the_numpy_scalar_loop():
    # the backward recurrence steps Python floats; numpy scalars give the
    # same IEEE operations, so the same bits, through the rescaling too
    rescaled = 0
    for tau in (1.0, 1.5, 7.0, 40.0, 401.0, 3000.0):
        for k_max in (0, 1, 30, 214, 2000):
            ref, rescales = reference_miller_vector(k_max, tau)
            assert bessel_ie_scaled(k_max, tau).tobytes() == ref.tobytes(), (k_max, tau)
            rescaled += rescales > 0
    assert rescaled  # some case goes through the _RESCALE_LIMIT branch


def test_against_reference_grid():
    for tau in (0.05, 0.9, 1.1, 3.0, 25.0, 400.0):
        v = bessel_ie_scaled(40, tau)
        for k in (0, 1, 2, 7, 19, 40):
            ref = ie_reference(k, tau)
            if ref > 1e-290:
                assert v[k] == pytest.approx(ref, rel=1e-12), (k, tau)
            else:
                assert v[k] <= 1e-290


def test_tau_zero_is_unit_vector():
    v = bessel_ie_scaled(6, 0.0)
    np.testing.assert_array_equal(v, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_subnormal_tau_is_unit_vector():
    # 5e-324 / 2 underflows to exactly zero; must not reach log(0)
    v = bessel_ie_scaled(3, 5e-324)
    np.testing.assert_array_equal(v, [1.0, 0.0, 0.0, 0.0])


def test_normalization_identity():
    # exp(-tau) * (I_0 + 2 sum I_k) = 1 for every tau
    for tau in (0.5, 4.0, 60.0):
        v = bessel_ie_scaled(max(200, int(4 * tau)), tau)
        total = v[0] + 2.0 * v[1:].sum()
        assert total == pytest.approx(1.0, abs=1e-13)


def test_three_term_recurrence():
    # Ie_{k-1} - Ie_{k+1} = (2k / tau) Ie_k
    for tau in (0.5, 2.0, 10.0, 50.0):
        v = bessel_ie_scaled(101, tau)
        for k in range(1, 100):
            lhs = v[k - 1] - v[k + 1]
            rhs = (2.0 * k / tau) * v[k]
            if abs(rhs) > 1e-280:
                assert lhs == pytest.approx(rhs, rel=1e-10), (k, tau)


def test_positive_and_decreasing():
    v = bessel_ie_scaled(60, 7.0)
    assert (v > 0.0).all()
    assert (np.diff(v) < 0.0).all()


def test_extreme_order_no_overflow():
    v = bessel_ie_scaled(ORDER_CAP, 10.0)
    assert v.shape == (ORDER_CAP + 1,)
    assert np.isfinite(v).all()
    assert v[0] == pytest.approx(ie_reference(0, 10.0), rel=1e-12)


def test_deep_underflow_is_zero():
    # true value ~ 1e-562 at k=300, tau=3; representable as exactly 0.0
    assert bessel_ie_scaled(300, 3.0)[300] == 0.0


def test_invalid_arguments():
    with pytest.raises(ValueError):
        bessel_ie_scaled(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_ie_scaled(3, -0.5)
    with pytest.raises(ValueError):
        bessel_ie_scaled(3, math.nan)
    with pytest.raises(ValueError):
        bessel_ie_scaled(ORDER_CAP + 1, 1.0)


def test_log_factorial():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0
    assert log_factorial(5) == pytest.approx(math.log(120.0), rel=1e-15)
    # beyond the exact-integer range; mpmath gives 706.57306224578735
    assert log_factorial(170) == pytest.approx(706.57306224578735, rel=1e-14)
