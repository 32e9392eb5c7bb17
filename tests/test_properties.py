"""Property checks over randomized inputs where a fixed table is too thin."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebheat.bessel import bessel_ie_scaled
from chebheat.bounds import BoundKind, energy_ratio, min_order, select_bound, sup_error_bound
from chebheat.diffusion import make_plan
from chebheat.errors import OrderCapError
from chebheat.graphs import build_laplacian, erdos_renyi

from helpers import eval_scalar


@given(st.floats(min_value=0.0, max_value=500.0), st.integers(min_value=0, max_value=150))
@settings(max_examples=60, deadline=None)
def test_bessel_vector_shape_and_positivity(tau, k_max):
    v = bessel_ie_scaled(k_max, tau)
    assert v.shape == (k_max + 1,)
    assert np.isfinite(v).all()
    assert (v >= 0.0).all()
    assert v.sum() <= 1.0 + 1e-12  # normalization caps every partial sum


@given(st.floats(min_value=0.01, max_value=60.0),
       st.floats(min_value=-8.0, max_value=-2.0), st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_min_order_monotone_in_tolerance(tau_eff, log_tol, gap):
    loose = 10.0 ** log_tol
    tight = 10.0 ** (log_tol - gap)
    for kind in (BoundKind.NEW_GENERIC, BoundKind.BASELINE_GENERIC):
        assert min_order(kind, tau_eff, tight) >= min_order(kind, tau_eff, loose)


@given(st.floats(min_value=0.05, max_value=30.0), st.integers(min_value=0, max_value=40))
@settings(max_examples=40, deadline=None)
def test_truncation_within_certificate_pointwise(tau_eff, extra):
    # |p_K - exp| on the spectral interval never exceeds the certificate,
    # modulo double-precision dust
    order = int(tau_eff / 2.0) + extra  # the first valid order, order + 1 > tau_eff / 2, on
    lam = np.linspace(0.0, 2.0, 257)
    gap = np.max(np.abs(eval_scalar(tau_eff, order, lam) - np.exp(-tau_eff * lam)))
    assert gap <= sup_error_bound(order, tau_eff) + 1e-13


OLD_KINDS = (BoundKind.NEW_GENERIC, BoundKind.NEW_SPECIFIC,
             BoundKind.BASELINE_GENERIC, BoundKind.BASELINE_SPECIFIC)
# the two-node normalized path: lambda_max is 2, so tau_eff is the scale itself
P2_NORMALIZED = build_laplacian([(0, 1)], 2, kind="normalized")


@given(st.floats(min_value=-14.0, max_value=-1.0),
       st.one_of(st.floats(min_value=-0.99, max_value=100.0), st.just(-1.0)),
       st.floats(min_value=0.0, max_value=3000.0))
@settings(max_examples=200, deadline=None)
def test_auto_order_is_the_smallest_certified(log_tol, second, tau_eff):
    # auto runs min_order of select_bound's variant's tail kind, and no other
    # kind certifies a smaller order at that scale; a second entry of -1
    # gives a signal with no component along the kernel vector
    tol = 10.0 ** log_tol
    x = [1.0, second]
    ratio = energy_ratio(x, P2_NORMALIZED)
    tail = (BoundKind.TAIL_SPECIFIC if select_bound(tau_eff, ratio) is BoundKind.NEW_SPECIFIC
            else BoundKind.TAIL_GENERIC)
    orders = {}
    for kind in OLD_KINDS:
        try:
            orders[kind] = min_order(kind, tau_eff, tol, ratio=ratio)
        except (ValueError, OrderCapError):  # undefined for this signal, or past the cap
            pass
    try:
        order = min_order(tail, tau_eff, tol, ratio=ratio)
    except OrderCapError:
        assert not orders  # never looser than any old kind
        with pytest.raises(OrderCapError, match=f"for {tail.value} at"):
            make_plan(P2_NORMALIZED, x, [tau_eff], tol)
        return
    assert all(order <= k for k in orders.values()), (order, orders)
    plan = make_plan(P2_NORMALIZED, x, [tau_eff], tol)
    assert (plan.kind, plan.order) == (tail, order)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2 ** 32),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=30, deadline=None)
def test_erdos_renyi_deterministic_and_simple(n, seed, p):
    a = erdos_renyi(n, p, seed)
    assert np.array_equal(a, erdos_renyi(n, p, seed))
    seen = set()
    for i, j, w in a.tolist():
        assert 0 <= i < j < n and w == 1.0
        assert (i, j) not in seen
        seen.add((i, j))
