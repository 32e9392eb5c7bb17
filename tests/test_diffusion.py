"""End-to-end diffusion paths: planning, single scale, multiscale, audit."""

import math

import numpy as np
import pytest

import chebheat.diffusion
from chebheat.bounds import BoundKind, true_min_order
from chebheat.diffusion import (_lambda_floor, _stream, estimate_lambda_max, expm_multiply,
                                expm_multiscale, make_plan, measure_errors)
from chebheat.errors import ConvergenceError
from chebheat.graphs import GraphSignal, SparseSymMatrix, build_laplacian, erdos_renyi

from helpers import complete_edges

P2 = build_laplacian([(0, 1)], 2)
DIRAC2 = GraphSignal([1.0, 0.0])


def lattice_3d_edges(side):
    idx = np.arange(side ** 3).reshape(side, side, side)
    edges = []
    for axis in range(3):
        a = np.moveaxis(idx, axis, 0)
        edges += list(zip(a[:-1].ravel().tolist(), a[1:].ravel().tolist()))
    return edges


class TestEstimateLambdaMax:
    def test_bracket_on_random_graphs(self):
        for seed in range(4):
            L = build_laplacian(erdos_renyi(80, 0.1, seed=seed), 80)
            lam = estimate_lambda_max(L)
            true = float(np.linalg.eigvalsh(L.to_dense()).max())
            assert true <= lam <= 1.02 * true

    def test_deterministic(self):
        # the start vector is fixed, so the estimate is a function of the operator
        a = build_laplacian(erdos_renyi(60, 0.1, seed=2), 60)
        b = build_laplacian(erdos_renyi(60, 0.1, seed=2), 60)
        assert estimate_lambda_max(a) == estimate_lambda_max(a) == estimate_lambda_max(b)

    def test_zero_operator(self):
        L = build_laplacian([], 3)
        assert estimate_lambda_max(L) == 0.0

    def test_budget_raises(self, monkeypatch):
        # two settled passes are needed from iteration 10 on, so a budget
        # of 10 can never be met
        monkeypatch.setattr(chebheat.diffusion, "_POWER_MAX_ITER", 10)
        L = build_laplacian(erdos_renyi(30, 0.2, seed=1), 30)
        with pytest.raises(ConvergenceError):
            estimate_lambda_max(L)


class TestSpectralRadiusSource:
    def test_normalized_lattice_uses_exact_bound(self):
        # power iteration from some start vectors estimated 1.99211 and
        # 1.99810 here, below the true value 2
        n = 12 ** 3
        L = build_laplacian(lattice_3d_edges(12), n, kind="normalized")
        plan = make_plan(L, np.ones(n), [1.0], 1e-8)
        assert plan.lambda_max == 2.0
        assert plan.setup_matvecs == 0
        # the audit helpers rescale by the same value as the run
        assert estimate_lambda_max(L) == 2.0

    def test_constructed_operator_has_no_trusted_bound(self):
        # 2-node path, lambda_max = 2. A trusted spectral_bound=0.5 once
        # reported a bound of 5.4e-10 for a measured squared error of 0.047
        parts = (2, [0, 2, 4], [0, 1, 0, 1], [1.0, -1.0, -1.0, 1.0])
        with pytest.raises(TypeError):
            SparseSymMatrix(*parts, spectral_bound=0.5)
        op = SparseSymMatrix(*parts)
        assert op.spectral_bound is None
        [(_, rep)] = expm_multiscale(op, DIRAC2, [1.0], tol=1e-8)
        assert rep.lambda_max >= 2.0 and rep.setup_matvecs > 0
        _, eta = measure_errors(op, DIRAC2, 1.0, rep.order, lambda_max=rep.lambda_max)
        assert eta <= rep.bound <= 1e-8

    def test_spectral_bound_is_read_only(self):
        # assigning 0.5 on the 2-node path once reported a bound of 5.4e-10
        # for a measured relative squared error of 0.047
        op = SparseSymMatrix(2, [0, 2, 4], [0, 1, 0, 1], [1.0, -1.0, -1.0, 1.0])
        with pytest.raises(AttributeError):
            op.spectral_bound = 0.5
        L = build_laplacian([(0, 1)], 2, kind="normalized")
        with pytest.raises(AttributeError):
            L.spectral_bound = 0.5
        assert op.spectral_bound is None and L.spectral_bound == 2.0

    def test_too_small_lambda_rejected(self):
        # true lambda_max 20.824, free lower bound 19.162
        L = build_laplacian(erdos_renyi(200, 0.05, seed=7), 200)
        true = float(np.linalg.eigvalsh(L.to_dense()).max())
        x = GraphSignal(np.random.default_rng(0).standard_normal(200))
        for lam in (0.9 * true, 0.0):
            with pytest.raises(ValueError, match="lambda_max"):
                expm_multiply(L, x, 5.0, tol=1e-8, lambda_max=lam)
            with pytest.raises(ValueError, match="lambda_max"):
                expm_multiscale(L, x, [0.5, 5.0], tol=1e-8, lambda_max=lam)
            # unchecked, measure_errors gave 7.8e7 at 0.9 x true and measured
            # the unchanged input at 0; true_min_order gave 32 and ran to
            # the order cap
            with pytest.raises(ValueError, match="lambda_max"):
                measure_errors(L, x, 5.0, 30, lambda_max=lam)
            with pytest.raises(ValueError, match="lambda_max"):
                true_min_order(L, x, 5.0, 1e-8, lambda_max=lam)
        _, rep = expm_multiply(L, x, 5.0, tol=1e-8, lambda_max=true)
        assert rep.lambda_max == true

    def test_lower_bound_is_below_true_radius(self):
        graphs = [build_laplacian(erdos_renyi(60, 0.1, seed=s), 60, kind=k)
                  for s in range(3) for k in ("combinatorial", "normalized")]
        graphs.append(build_laplacian([(0, 1, 0.3), (1, 2, 2.0)], 4))
        for L in graphs:
            assert _lambda_floor(L) <= float(np.linalg.eigvalsh(L.to_dense()).max()) + 1e-12
        # sharp on a single edge: the 2x2 block is the whole matrix
        assert _lambda_floor(P2) == 2.0

    def test_zero_lambda_allowed_on_zero_operator(self):
        L = build_laplacian([], 3)
        y, rep = expm_multiply(L, GraphSignal([1.0, 2.0, 3.0]), 1.0, lambda_max=0.0)
        np.testing.assert_array_equal(y, [1.0, 2.0, 3.0])


class TestSingleScale:
    def test_path_two_analytic(self):
        # tol certifies the squared relative error, so values are good
        # to sqrt(tol) = 1e-6 of the output norm
        for tau in (0.3, 1.0, 4.0):
            y, rep = expm_multiply(P2, DIRAC2, tau, tol=1e-12, lambda_max=2.0)
            e = math.exp(-2.0 * tau)
            np.testing.assert_allclose(y, [0.5 * (1 + e), 0.5 * (1 - e)], atol=1e-6)
            assert rep.matvecs == rep.order
            assert rep.lambda_max == 2.0

    def test_complete_graph_mixing(self):
        # K_3 at large tau spreads a dirac to the uniform vector
        L = build_laplacian(complete_edges(3), 3)
        y, _ = expm_multiply(L, GraphSignal([1.0, 0.0, 0.0]), 50.0,
                             tol=1e-12, lambda_max=3.0)
        np.testing.assert_allclose(y, [1 / 3, 1 / 3, 1 / 3], atol=1e-9)

    def test_tau_zero_is_identity(self):
        x = GraphSignal([0.4, -1.1])
        y, rep = expm_multiply(P2, x, 0.0, lambda_max=2.0)
        np.testing.assert_array_equal(y, x.values)
        assert rep.order == 0 and rep.bound == 0.0

    def test_zero_operator_identity(self):
        L = build_laplacian([], 3)
        x = GraphSignal([1.0, 2.0, 3.0])
        y, rep = expm_multiply(L, x, 5.0)
        np.testing.assert_array_equal(y, x.values)
        assert rep.matvecs == 0

    def test_explicit_lambda_skips_estimation(self):
        y, rep = expm_multiply(P2, DIRAC2, 1.0, lambda_max=2.0)
        assert rep.setup_matvecs == 0

    def test_certified_error_holds(self):
        L = build_laplacian(erdos_renyi(90, 0.08, seed=3), 90)
        x = GraphSignal(np.random.default_rng(4).standard_normal(90))
        for tol in (1e-3, 1e-5, 1e-8):
            _, rep = expm_multiply(L, x, 0.7, tol=tol)
            eps, eta = measure_errors(L, x, 0.7, rep.order, lambda_max=rep.lambda_max)
            assert eta <= tol
            assert eta <= rep.bound or rep.bound == 0.0

    def test_mass_conserved(self):
        L = build_laplacian(erdos_renyi(70, 0.1, seed=9), 70)
        x = GraphSignal(np.random.default_rng(5).standard_normal(70))
        y, _ = expm_multiply(L, x, 1.3, tol=1e-8)
        slack = math.sqrt(1e-8) * np.linalg.norm(x.values) * math.sqrt(70)
        assert y.sum() == pytest.approx(x.values.sum(), abs=slack)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            expm_multiply(P2, GraphSignal([1.0, 0.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            expm_multiply(P2, DIRAC2, -1.0)
        with pytest.raises(ValueError):
            expm_multiply(P2, DIRAC2, 1.0, tol=0.0)


class TestMakePlan:
    def test_auto_resolves_by_crossover(self):
        L = build_laplacian(erdos_renyi(100, 0.1, seed=1), 100)
        x = GraphSignal(np.random.default_rng(0).standard_normal(100))
        small = make_plan(L, x, [1e-4], 1e-5)
        large = make_plan(L, x, [5.0], 1e-5)
        assert small.kind is BoundKind.NEW_GENERIC
        assert large.kind is BoundKind.NEW_SPECIFIC

    def test_explicit_kind_respected(self):
        plan = make_plan(P2, DIRAC2, [1.0], 1e-5, kind="base-generic", lambda_max=2.0)
        assert plan.kind is BoundKind.BASELINE_GENERIC

    def test_specific_rejected_for_zero_sum_signal(self):
        x = GraphSignal([1.0, -1.0])
        with pytest.raises(ValueError, match="sum to zero"):
            make_plan(P2, x, [1.0], 1e-5, kind="new-specific", lambda_max=2.0)
        # auto quietly falls back to the generic certificate
        assert make_plan(P2, x, [1.0], 1e-5, lambda_max=2.0).kind is BoundKind.NEW_GENERIC

    def test_order_set_by_largest_scale(self):
        plan = make_plan(P2, DIRAC2, [0.01, 2.0], 1e-6, lambda_max=2.0)
        solo = make_plan(P2, DIRAC2, [2.0], 1e-6, lambda_max=2.0)
        assert plan.order == solo.order

    def test_empty_scales_rejected(self):
        with pytest.raises(ValueError):
            make_plan(P2, DIRAC2, [], 1e-5, lambda_max=2.0)

    @pytest.mark.parametrize("kind", ["new-specific", "auto"])
    @pytest.mark.parametrize("factor", [2.0 ** 600, 2.0 ** -600, 1e-200, 1e160, 1e300])
    def test_signal_magnitude_keeps_order(self, kind, factor):
        L = build_laplacian(erdos_renyi(50, 0.2, seed=3), 50)
        x = np.random.default_rng(0).standard_normal(50)
        ref = make_plan(L, x, [1.0, 3.0], 1e-8, kind=kind)
        plan = make_plan(L, factor * x, [1.0, 3.0], 1e-8, kind=kind)
        assert ref.kind is BoundKind.NEW_SPECIFIC
        assert (plan.order, plan.kind) == (ref.order, ref.kind)
        y, _ = expm_multiply(L, factor * x, 3.0, tol=1e-8, kind=kind)
        y_ref, _ = expm_multiply(L, x, 3.0, tol=1e-8, kind=kind)
        np.testing.assert_allclose(y / factor, y_ref, rtol=0.0, atol=1e-12 * np.abs(y_ref).max())


class TestMultiscale:
    def test_matches_single_scale_at_same_order(self):
        L = build_laplacian(erdos_renyi(120, 0.06, seed=3), 120)
        x = GraphSignal(np.random.default_rng(11).standard_normal(120))
        scales = [0.01, 0.1, 0.7, 2.0]
        results = expm_multiscale(L, x, scales, tol=1e-5)
        plan = make_plan(L, x, scales, 1e-5)
        for (y, rep), tau_eff in zip(results, plan.tau_effs):
            ref = _stream(L, plan.lambda_max, x.values, plan.order, tau_eff)
            np.testing.assert_array_equal(y, ref)
            assert rep.order == plan.order

    def test_duplicate_scales_identical(self):
        results = expm_multiscale(P2, DIRAC2, [1.5, 1.5], tol=1e-6, lambda_max=2.0)
        np.testing.assert_array_equal(results[0][0], results[1][0])

    def test_output_preserves_input_order(self):
        results = expm_multiscale(P2, DIRAC2, [2.0, 0.1], tol=1e-6, lambda_max=2.0)
        assert results[0][1].tau == 2.0
        assert results[1][1].tau == 0.1

    def test_every_scale_certified(self):
        L = build_laplacian(erdos_renyi(80, 0.1, seed=7), 80)
        x = GraphSignal(np.random.default_rng(2).standard_normal(80))
        scales = [0.05, 0.3, 1.0]
        results = expm_multiscale(L, x, scales, tol=1e-6)
        for (y, rep), tau in zip(results, scales):
            _, eta = measure_errors(L, x, tau, rep.order, lambda_max=rep.lambda_max)
            assert eta <= 1e-6
            assert rep.bound <= results[-1][1].bound + 1e-30  # largest scale dominates

    def test_smoothing_monotone_in_scale(self):
        # diffusion only ever flattens a signal, so variance falls with tau
        L = build_laplacian(erdos_renyi(80, 0.1, seed=8), 80)
        x = GraphSignal(np.random.default_rng(3).standard_normal(80))
        results = expm_multiscale(L, x, [0.1, 0.5, 2.0, 8.0], tol=1e-9)
        variances = [float(np.var(y)) for y, _ in results]
        assert all(a > b for a, b in zip(variances, variances[1:]))
