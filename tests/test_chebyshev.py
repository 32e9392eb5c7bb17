"""Coefficients, basis recurrence, recombination, scalar evaluation."""

import math

import numpy as np
import pytest

from chebheat.chebyshev import build_basis, cheb_coefficients, cheb_terms, combine
from chebheat.graphs import build_laplacian, erdos_renyi

from helpers import eval_scalar, series_sum

# mpmath at 50 digits: +-2 exp(-tau) I_k(tau)
C0_TAU1 = 0.93151921518728087
C1_TAU1 = -0.4158208306994169
C0_TAU2 = 0.61701664510734208
C2_TAU2 = 0.18647806660946676


def test_frozen_coefficients():
    c = cheb_coefficients(1.0, 1)
    assert c[0] == pytest.approx(C0_TAU1, rel=1e-14)
    assert c[1] == pytest.approx(C1_TAU1, rel=1e-14)
    c2 = cheb_coefficients(2.0, 2)
    assert c2[0] == pytest.approx(C0_TAU2, rel=1e-14)
    assert c2[2] == pytest.approx(C2_TAU2, rel=1e-14)
    with pytest.raises(ValueError):
        c2[0] = 5.0


def test_signs_alternate():
    for tau in (0.3, 1.0, 8.0, 45.0):
        c = cheb_coefficients(tau, 30)
        live = np.abs(c) > 0.0
        signs = np.sign(c[live])
        expected = np.where(np.arange(31)[live] % 2 == 0, 1.0, -1.0)
        np.testing.assert_array_equal(signs, expected)


def test_tau_zero_coefficients():
    c = cheb_coefficients(0.0, 4)
    np.testing.assert_array_equal(c, [2.0, 0.0, 0.0, 0.0, 0.0])


def test_invalid_arguments():
    with pytest.raises(ValueError):
        cheb_coefficients(-1.0, 3)
    with pytest.raises(ValueError):
        cheb_coefficients(1.0, -1)
    L = build_laplacian([(0, 1)], 2)
    with pytest.raises(ValueError):
        build_basis(L, [1.0, 0.0, 0.0], 2)
    with pytest.raises(ValueError):
        build_basis(L, [[1.0, 0.0]], 2)


def test_basis_satisfies_recurrence():
    L = build_laplacian(erdos_renyi(50, 0.15, seed=4), 50)
    lam = 14.0  # any upper estimate works for the recurrence identity
    op = L.scaled(2.0 / lam)
    x = np.random.default_rng(0).standard_normal(50)
    v = list(build_basis(op, x, 12))
    assert len(v) == 13
    np.testing.assert_array_equal(v[0], x)
    scale = np.linalg.norm(x)
    # T_{k+1} = 2(A - I)T_k - T_{k-1} with A the scaled operator
    for k in range(1, 12):
        resid = v[k + 1] - (2.0 * (op.matvec(v[k]) - v[k]) - v[k - 1])
        assert np.max(np.abs(resid)) <= 1e-12 * scale


def test_combine_rejects_higher_order():
    L = build_laplacian([(0, 1)], 2).scaled(1.0)
    with pytest.raises(ValueError, match="basis of order 2 cannot serve coefficients of order 3"):
        combine(build_basis(L, [1.0, 0.0], 2), cheb_coefficients(1.0, 3))
    # a row stream that ends early, before or after its first row
    for rows in ([], [np.array([1.0, 0.0])]):
        with pytest.raises(ValueError, match="cannot serve"):
            combine(rows, np.stack([cheb_coefficients(1.0, 3)] * 2))


def test_combine_draws_no_row_past_the_last_coefficient():
    L = build_laplacian(erdos_renyi(40, 0.2, seed=2), 40)
    op = L.scaled(2.0 / 17.0)
    x = np.random.default_rng(1).standard_normal(40)
    calls = []

    def apply(v):
        calls.append(1)
        return op.matvec(v)

    for order in (0, 1, 25):
        C = np.stack([cheb_coefficients(t, order) for t in (0.2, 3.0)])
        calls.clear()
        # an endless row stream: only the coefficients stop it
        y = combine(cheb_terms(apply, x), C)
        assert len(calls) == order
        assert y.tobytes() == combine(build_basis(op, x, order), C).tobytes()


def test_combine_many_scales_matches_one_at_a_time():
    n = 50
    rng = np.random.default_rng(4)
    edges = np.array(erdos_renyi(n, 0.15, seed=4), dtype=np.float64)
    edges[:, 2] = rng.uniform(0.2, 2.0, len(edges))
    L = build_laplacian(edges, n)
    lam = float(np.linalg.eigvalsh(L.to_dense()).max()) * 1.01
    basis = list(build_basis(L.scaled(2.0 / lam), rng.standard_normal(n), 60))
    for order in (60, 35, 0):  # a basis deeper than the coefficients serves them too
        C = np.stack([cheb_coefficients(t, order) for t in (0.0, 0.05, 1.0, 4.0, 25.0)])
        together = combine(basis, C)
        assert together.shape == (5, n)
        for c, y in zip(C, together):
            assert y.tobytes() == combine(basis, c).tobytes()
            assert y.tobytes() == series_sum(c, basis).tobytes()


def test_combine_matches_dense_exponential():
    n = 30
    L = build_laplacian(erdos_renyi(n, 0.25, seed=9), n)
    dense = L.to_dense()
    lam = float(np.linalg.eigvalsh(dense).max()) * 1.01
    x = np.random.default_rng(3).standard_normal(n)
    tau = 0.8
    op = L.scaled(2.0 / lam)
    y = combine(build_basis(op, x, 40), cheb_coefficients(lam * tau / 2.0, 40))
    lam_e, u = np.linalg.eigh(dense)
    ref = u @ (np.exp(-tau * lam_e) * (u.T @ x))
    assert np.max(np.abs(y - ref)) <= 1e-12 * np.linalg.norm(x)


def test_eval_scalar_endpoints():
    # at lambda = 0 every term is positive, so the truncation climbs toward
    # exp(0) = 1 from below and the order-0 value is exactly c0 / 2
    assert eval_scalar(1.0, 0, 0.0) == pytest.approx(0.5 * C0_TAU1, rel=1e-14)
    partials = [eval_scalar(1.0, order, 0.0) for order in (0, 2, 5, 17)]
    assert all(a < b for a, b in zip(partials, partials[1:]))
    assert partials[-1] == pytest.approx(1.0, abs=1e-13)
    # converged series hits exp(-tau * lambda) at both ends
    assert eval_scalar(1.0, 40, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-15)
    assert eval_scalar(3.0, 60, 1.0) == pytest.approx(math.exp(-3.0), abs=1e-14)


def test_eval_scalar_vectorized_and_domain():
    vals = eval_scalar(2.0, 50, np.array([0.0, 1.0, 2.0]))
    ref = np.exp(-2.0 * np.array([0.0, 1.0, 2.0]))
    np.testing.assert_allclose(vals, ref, atol=1e-13)
    with pytest.raises(ValueError):
        eval_scalar(1.0, 5, 2.5)
