"""Property checks over randomized inputs where a fixed table is too thin."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chebheat.bessel import bessel_ie_scaled
from chebheat.bounds import BoundKind, min_order, sup_error_bound
from chebheat.graphs import erdos_renyi

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
    order = int(tau_eff / 2.0) + 1 + extra
    lam = np.linspace(0.0, 2.0, 257)
    gap = np.max(np.abs(eval_scalar(tau_eff, order, lam) - np.exp(-tau_eff * lam)))
    assert gap <= sup_error_bound(order, tau_eff) + 1e-13


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2 ** 32),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=30, deadline=None)
def test_erdos_renyi_deterministic_and_simple(n, seed, p):
    a = erdos_renyi(n, p, seed)
    assert a == erdos_renyi(n, p, seed)
    seen = set()
    for i, j, w in a:
        assert 0 <= i < j < n and w == 1.0
        assert (i, j) not in seen
        seen.add((i, j))
