"""Dense reference paths: LAPACK and Jacobi spectra, exact diffusion, quadrature."""

import math

import numpy as np
import pytest

from chebheat.chebyshev import cheb_coefficients
from chebheat.errors import ConvergenceError
from chebheat.graphs import build_laplacian, erdos_renyi
from chebheat.oracle import DENSE_CAP, dense_spectrum, exact_diffusion, jacobi_eigh

from helpers import (certified_tail, coeff_integral, complete_edges, dense_diffusion,
                     lattice_edges, path_edges)


class TestJacobi:
    def test_triangle_spectrum(self):
        L = build_laplacian(complete_edges(3), 3)
        eig, vec = jacobi_eigh(L.to_dense())
        np.testing.assert_allclose(eig, [0.0, 3.0, 3.0], atol=1e-13)
        np.testing.assert_allclose(vec.T @ vec, np.eye(3), atol=1e-13)

    def test_matches_numpy_on_random_laplacians(self):
        for seed in (0, 8):  # seed 8 once stalled on a cancellation artifact
            L = build_laplacian(erdos_renyi(60, 0.1, seed=seed), 60).to_dense()
            eig, vec = jacobi_eigh(L)
            np.testing.assert_allclose(eig, np.linalg.eigvalsh(L), atol=1e-11)
            recon = vec @ np.diag(eig) @ vec.T
            assert np.max(np.abs(recon - L)) <= 1e-11 * (1.0 + np.max(np.abs(L)))

    def test_ascending_order(self):
        L = build_laplacian(erdos_renyi(25, 0.3, seed=2), 25).to_dense()
        eig, _ = jacobi_eigh(L)
        assert (np.diff(eig) >= 0.0).all()

    def test_diagonal_input_immediate(self):
        eig, vec = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(eig, [1.0, 2.0, 3.0])
        # permutation matrix, one 1 per column
        np.testing.assert_array_equal(np.abs(vec).sum(axis=0), [1.0, 1.0, 1.0])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.zeros((2, 3)))

    def test_sweep_budget_raises(self):
        L = build_laplacian(erdos_renyi(40, 0.2, seed=1), 40).to_dense()
        with pytest.raises(ConvergenceError):
            jacobi_eigh(L, max_sweeps=1)


class TestDenseSpectrum:
    @pytest.mark.parametrize("edges, n", [
        (path_edges(30), 30),
        (path_edges(30) + [(29, 0)], 30),  # cycle
        (lattice_edges(6, 7), 42),
        (lattice_edges(4, 4, 4), 64),
        (erdos_renyi(100, 0.1, seed=1), 100),
    ])
    def test_lapack_agrees_with_jacobi(self, edges, n):
        # the Jacobi solver shares no code with LAPACK: an independent witness
        L = build_laplacian(edges, n)
        dense = L.to_dense()
        scale = np.linalg.norm(dense)
        spec = dense_spectrum(L)
        eig, vec = jacobi_eigh(dense)
        assert np.max(np.abs(spec.eigenvalues - eig)) <= 1e-10 * scale
        assert (np.diff(spec.eigenvalues) >= 0.0).all()
        for lam, u in ((spec.eigenvalues, spec.vectors), (eig, vec)):
            assert np.linalg.norm((u * lam) @ u.T - dense) <= 1e-10 * scale
            assert np.linalg.norm(u.T @ u - np.eye(n)) <= 1e-10 * np.sqrt(n)

    def test_cache_returns_same_object(self):
        L = build_laplacian([(0, 1), (1, 2)], 3)
        assert dense_spectrum(L) is dense_spectrum(L)

    def test_spectrum_kept_while_other_operators_are_diagonalized(self):
        # each operator keeps its own spectrum: 32 others, all still alive,
        # do not push it out (a 32-entry cache evicted it)
        first = build_laplacian(path_edges(6), 6)
        spec = dense_spectrum(first)
        others = [build_laplacian(path_edges(k + 2), k + 2) for k in range(32)]
        for op in others:
            dense_spectrum(op)
        assert dense_spectrum(first) is spec
        assert all(dense_spectrum(op) is dense_spectrum(op) for op in others)
        assert dense_spectrum(first.scaled(2.0)) is not spec

    def test_size_cap(self):
        big = build_laplacian([(0, 1)], DENSE_CAP + 1)
        with pytest.raises(ValueError):
            dense_spectrum(big)


class TestExactDiffusion:
    def test_path_two_analytic(self):
        L = build_laplacian([(0, 1)], 2)
        for tau in (0.2, 1.0, 7.0):
            w = exact_diffusion(L, np.array([1.0, 0.0]), tau)
            e = math.exp(-2.0 * tau)
            np.testing.assert_allclose(w, [0.5 * (1 + e), 0.5 * (1 - e)], atol=1e-14)

    def test_tau_zero_identity(self):
        L = build_laplacian([(0, 1), (1, 2)], 3)
        x = np.array([0.3, -1.0, 2.0])
        np.testing.assert_allclose(exact_diffusion(L, x, 0.0), x, atol=1e-13)

    def test_matches_numpy_eigh_route(self):
        L = build_laplacian(erdos_renyi(35, 0.2, seed=5), 35)
        x = np.random.default_rng(1).standard_normal(35)
        mine = exact_diffusion(L, x, 0.9)
        ref = dense_diffusion(L.to_dense(), x, 0.9)
        np.testing.assert_allclose(mine, ref, atol=1e-11)

    def test_mass_conserved(self):
        L = build_laplacian(erdos_renyi(35, 0.2, seed=5), 35)
        x = np.random.default_rng(2).standard_normal(35)
        w = exact_diffusion(L, x, 3.0)
        assert w.sum() == pytest.approx(x.sum(), abs=1e-10)


class TestQuadrature:
    def test_matches_bessel_route(self):
        # same identity the coefficients are built on, different algorithm
        for tau in (0.1, 1.0, 5.0, 20.0):
            c = cheb_coefficients(tau, 12)
            for k in range(13):
                assert coeff_integral(k, tau) == pytest.approx(c[k], abs=1e-12), (k, tau)

    def test_frozen_value(self):
        # 2 exp(-2) I_0(2) from mpmath
        assert coeff_integral(0, 2.0) == pytest.approx(0.61701664510734208, rel=1e-12)


class TestTailSum:
    """The certified coefficient tail that the tail kinds sum."""

    def test_tau_zero(self):
        assert certified_tail(5, 0.0) == 0.0

    def test_decreases_with_order(self):
        vals = [certified_tail(k, 6.0) for k in (3, 6, 12, 24)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_positive(self):
        assert certified_tail(10, 30.0) > 0.0
