"""End-to-end diffusion paths: planning, single scale, multiscale, audit."""

import dataclasses
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

import chebheat.diffusion
from chebheat import chebyshev
from chebheat.bounds import (AUTO, BoundKind, energy_ratio, log_bound_value, min_order,
                             true_min_order)
from chebheat.chebyshev import cheb_coefficients, cheb_terms
from chebheat.diffusion import (_lambda_floor, estimate_lambda_max, expm_multiply,
                                expm_multiscale, make_plan, measure_errors)
from chebheat.errors import ConvergenceError, OrderCapError
from chebheat.cli import main
from chebheat.graphs import SparseSymMatrix, build_laplacian, erdos_renyi, load_graph, load_signal
from chebheat.oracle import exact_diffusion

from helpers import (complete_edges, force_combine_helper, lattice_edges, path_edges,
                     series_sum)

P2 = build_laplacian([(0, 1)], 2)
SPECIFIC = (BoundKind.NEW_SPECIFIC, BoundKind.BASELINE_SPECIFIC, BoundKind.TAIL_SPECIFIC)
DIRAC2 = np.array([1.0, 0.0])


def summed_term_by_term(op, lam_hat, x, order, tau_eff):
    """The order-``order`` expansion at ``tau_eff``, one partial sum at a time."""
    scaled = op.scaled(2.0 / lam_hat)
    return series_sum(cheb_coefficients(tau_eff, order), cheb_terms(scaled.matvec, x))


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


def weighted_er(n, p, seed):
    edges = np.array(erdos_renyi(n, p, seed=seed), dtype=np.float64)
    edges[:, 2] = np.random.default_rng(seed).uniform(0.1, 3.0, len(edges))
    return build_laplacian(edges, n)


class TestPowerMemo:
    """The power-iteration estimate is kept on each operator object.

    Only the paper's four kinds run power iteration; ``auto`` takes the
    certified ceiling (``TestSpectralCeiling``).
    """

    SCALES = [0.01, 0.3, 2.0, 9.0]
    KIND = "new-specific"

    def _counted_multiscale(self, monkeypatch, op, x):
        counts = {"matvecs": 0}
        inner = SparseSymMatrix.matvec

        def counting_matvec(self, v):
            counts["matvecs"] += 1
            return inner(self, v)

        with monkeypatch.context() as m:
            m.setattr(SparseSymMatrix, "matvec", counting_matvec)
            results = expm_multiscale(op, x, self.SCALES, tol=1e-8, kind=self.KIND)
        return results, counts["matvecs"]

    def test_repeat_is_bitwise_equal_and_pays_only_the_basis(self, monkeypatch):
        op = weighted_er(90, 0.08, seed=5)
        x = np.random.default_rng(6).standard_normal(90)
        first, first_count = self._counted_multiscale(monkeypatch, op, x)
        repeat, repeat_count = self._counted_multiscale(monkeypatch, op, x)
        assert first[0][1].setup_matvecs > 0
        assert first_count == first[0][1].setup_matvecs + first[0][1].order
        assert all(rep.setup_matvecs == 0 for _, rep in repeat)
        assert repeat_count == repeat[0][1].order
        for results in (first, repeat):
            for (y, rep), tau in zip(results, self.SCALES):
                assert rep.tau == tau
                ref = summed_term_by_term(op, rep.lambda_max, x, rep.order, rep.tau_eff)
                assert y.tobytes() == ref.tobytes()
        for (y, rep), (y_first, rep_first) in zip(repeat, first):
            assert rep == dataclasses.replace(rep_first, setup_matvecs=0)
            assert y.tobytes() == y_first.tobytes()

    def test_equal_operator_recomputes_same_bits(self):
        a = weighted_er(70, 0.1, seed=8)
        b = weighted_er(70, 0.1, seed=8)
        x = np.random.default_rng(9).standard_normal(70)
        plan_a = make_plan(a, x, [1.0], 1e-6, kind=self.KIND)
        plan_b = make_plan(b, x, [1.0], 1e-6, kind=self.KIND)
        assert plan_a.setup_matvecs == plan_b.setup_matvecs > 0
        assert plan_a.lambda_max.hex() == plan_b.lambda_max.hex()
        # a kept its estimate while b computed its own
        assert make_plan(a, x, [1.0], 1e-6, kind=self.KIND).setup_matvecs == 0

    def test_alternating_operators_keep_their_estimates(self, monkeypatch):
        a = weighted_er(80, 0.08, seed=11)
        b = weighted_er(60, 0.1, seed=12)
        xa = np.random.default_rng(13).standard_normal(80)
        xb = np.random.default_rng(14).standard_normal(60)
        first, _ = self._counted_multiscale(monkeypatch, a, xa)
        between, _ = self._counted_multiscale(monkeypatch, b, xb)
        third, third_count = self._counted_multiscale(monkeypatch, a, xa)
        assert first[0][1].setup_matvecs > 0 and between[0][1].setup_matvecs > 0
        assert all(rep.setup_matvecs == 0 for _, rep in third)
        assert third_count == third[0][1].order
        for (y, rep), (y_first, rep_first) in zip(third, first):
            assert rep == dataclasses.replace(rep_first, setup_matvecs=0)
            assert y.tobytes() == y_first.tobytes()

    def test_convergence_error_not_memoized(self, monkeypatch):
        op = build_laplacian(erdos_renyi(30, 0.2, seed=1), 30)
        x = np.ones(30)
        with monkeypatch.context() as m:
            m.setattr(chebheat.diffusion, "_POWER_MAX_ITER", 10)
            for _ in range(2):
                with pytest.raises(ConvergenceError):
                    make_plan(op, x, [1.0], 1e-6, kind=self.KIND)
        plan = make_plan(op, x, [1.0], 1e-6, kind=self.KIND)
        assert plan.setup_matvecs > 0
        fresh = build_laplacian(erdos_renyi(30, 0.2, seed=1), 30)
        assert plan.lambda_max == estimate_lambda_max(fresh)

    def test_given_and_exact_values_bypass_memo(self):
        op = weighted_er(40, 0.2, seed=3)
        x = np.ones(40)
        lam = estimate_lambda_max(op)
        plan = make_plan(op, x, [1.0], 1e-6, lambda_max=2.0 * lam)
        assert (plan.lambda_max, plan.setup_matvecs) == (2.0 * lam, 0)
        norm = build_laplacian(erdos_renyi(40, 0.3, seed=3), 40, kind="normalized")
        plan = make_plan(norm, x, [1.0], 1e-6)
        assert (plan.lambda_max, plan.setup_matvecs) == (2.0, 0)


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
        assert rep.lambda_max >= 2.0  # the certified ceiling, not a trusted value
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
        x = np.random.default_rng(0).standard_normal(200)
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

    def test_audits_take_the_paper_kinds_rescaling(self):
        # the default audit is not the auto run's: here the power estimate
        # (20.08) measures 2.6e-5 at K 32, the auto run at the ceiling 28.18
        # measures 5.4e-7 against its bound 6.4e-6
        L = build_laplacian(erdos_renyi(200, 0.05, seed=14), 200)
        x = np.random.default_rng(3).standard_normal(200)
        y, rep = expm_multiply(L, x, 5.0, tol=1e-5)
        estimate = estimate_lambda_max(L)
        assert rep.lambda_max != estimate
        assert measure_errors(L, x, 5.0, rep.order) == measure_errors(
            L, x, 5.0, rep.order, lambda_max=estimate)
        assert true_min_order(L, x, 5.0, 1e-5) == true_min_order(
            L, x, 5.0, 1e-5, lambda_max=estimate)
        w = exact_diffusion(L, x, 5.0)
        err = float((y - w) @ (y - w))
        own = measure_errors(L, x, 5.0, rep.order, lambda_max=rep.lambda_max)
        assert own == (err / float(x @ x), err / float(w @ w))
        assert own[1] <= rep.bound <= 1e-5

    def test_lower_bound_is_below_true_radius(self):
        graphs = [build_laplacian(erdos_renyi(60, 0.1, seed=s), 60, kind=k)
                  for s in range(3) for k in ("combinatorial", "normalized")]
        graphs.append(build_laplacian([(0, 1, 0.3), (1, 2, 2.0)], 4))
        for L in graphs:
            assert _lambda_floor(L) <= float(np.linalg.eigvalsh(L.to_dense()).max()) + 1e-12
        # sharp on a single edge: the 2x2 block is the whole matrix
        assert _lambda_floor(P2) == 2.0

    def test_floor_reads_padded_planes_in_place(self):
        # on a padded-plane operator the floor reads the planes, not CSR
        # arrays gathered from them, and takes the maximum the CSR pass took
        def csr_floor(op):
            rows = np.repeat(np.arange(op.n), np.diff(op.row_ptr))
            on_diag = rows == op.col_idx
            diag = np.zeros(op.n)
            diag[rows[on_diag]] = op.values[on_diag]
            a, b = diag[rows[~on_diag]], diag[op.col_idx[~on_diag]]
            pair = 0.5 * (a + b) + np.hypot(0.5 * (a - b), op.values[~on_diag])
            return float(max(diag.max(), pair.max(initial=-math.inf)))

        ops = [build_laplacian(lattice_edges(20, 20), 400),
               build_laplacian(lattice_edges(20, 20), 400, kind="normalized"),
               build_laplacian([(0, 1, 0.3), (1, 2, 2.0)], 4),  # node 3's row is empty
               build_laplacian(path_edges(30), 30).scaled(0.37),
               build_laplacian(erdos_renyi(60, 0.2, seed=3), 60)]  # reduceat layout
        for op in ops:
            floor = _lambda_floor(op)
            assert (op._col_idx is None) == (op._cols is not None)
            assert floor == csr_floor(op)
        L = build_laplacian(lattice_edges(30, 30), 900)
        x = np.random.default_rng(4).standard_normal(900)
        expm_multiscale(L, x, [0.5, 2.0], 1e-6, lambda_max=8.0)
        assert L._col_idx is None and L._values is None

    def test_zero_lambda_allowed_on_zero_operator(self):
        L = build_laplacian([], 3)
        y, rep = expm_multiply(L, np.array([1.0, 2.0, 3.0]), 1.0, lambda_max=0.0)
        np.testing.assert_array_equal(y, [1.0, 2.0, 3.0])


class TestSpectralCeiling:
    """``auto`` and the tail kinds rescale by a certified ceiling, free of matvecs."""

    def _operators(self):
        path = os.path.join(os.path.dirname(__file__), "data", "weighted.txt")
        n = 40
        a = build_laplacian(path_edges(n), n).to_dense() + 0.5 * np.eye(n)
        rows, cols = np.nonzero(a)
        row_ptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        ops = [build_laplacian(erdos_renyi(60, 0.1, seed=s), 60) for s in range(3)]
        ops += [weighted_er(50, 0.15, seed=4), build_laplacian(*load_graph(path)),
                build_laplacian(path_edges(30), 30), build_laplacian(lattice_edges(2, 250), 500),
                build_laplacian([(0, j) for j in range(1, 20)], 20),
                build_laplacian(lattice_3d_edges(4), 64),
                build_laplacian(erdos_renyi(60, 0.3, seed=5), 60, kind="normalized"),
                SparseSymMatrix(n, row_ptr, cols, a[rows, cols])]
        return ops + [op.scaled(0.3) for op in ops[:2]]

    def test_at_least_the_largest_eigenvalue(self):
        for op in self._operators():
            true = float(np.linalg.eigvalsh(op.to_dense()).max())
            assert true <= chebheat.diffusion._spectral_ceiling(op), true

    def test_merris_value_on_the_lattice(self):
        # interior rows give 4 + 4 * 4 / 4 = 8 exactly; the rows hold 5 entries
        op = build_laplacian(lattice_edges(12, 12), 144)
        assert chebheat.diffusion._spectral_ceiling(op) == 8.0 * (1.0 + 7 * 2.0 ** -52)
        assert chebheat.diffusion._spectral_ceiling(build_laplacian([], 3)) == 0.0

    def test_auto_and_tail_kinds_take_it_and_keep_it(self, monkeypatch):
        op = weighted_er(70, 0.1, seed=8)
        x = np.random.default_rng(9).standard_normal(70)
        counts = {"matvecs": 0}
        inner = SparseSymMatrix.matvec

        def counting_matvec(self, v):
            counts["matvecs"] += 1
            return inner(self, v)

        monkeypatch.setattr(SparseSymMatrix, "matvec", counting_matvec)
        ceiling = chebheat.diffusion._spectral_ceiling(weighted_er(70, 0.1, seed=8))
        for kind in ("auto", "tail-generic", "tail-specific"):
            [(_, rep)] = expm_multiscale(op, x, [2.0], tol=1e-8, kind=kind)
            assert (rep.lambda_max, rep.setup_matvecs) == (ceiling, 0)
            assert counts["matvecs"] == rep.order
            counts["matvecs"] = 0
        assert op._facts == {"ceiling": ceiling}
        # the paper's kinds keep the power estimate, which is not certified
        plan = make_plan(op, x, [2.0], 1e-8, kind="new-specific")
        assert plan.setup_matvecs > 0 and plan.lambda_max == op._facts["lambda_hat"] < ceiling


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
        # tol 1e-20 certifies 1e-10 of the output norm, 5.8e-11, below atol
        y, _ = expm_multiply(L, np.array([1.0, 0.0, 0.0]), 50.0,
                             tol=1e-20, lambda_max=3.0)
        np.testing.assert_allclose(y, [1 / 3, 1 / 3, 1 / 3], atol=1e-9)

    def test_tau_zero_is_identity(self):
        x = np.array([0.4, -1.1])
        y, rep = expm_multiply(P2, x, 0.0, lambda_max=2.0)
        np.testing.assert_array_equal(y, x)
        assert rep.order == 0 and rep.bound == 0.0

    def test_zero_operator_identity(self):
        L = build_laplacian([], 3)
        x = np.array([1.0, 2.0, 3.0])
        y, rep = expm_multiply(L, x, 5.0)
        np.testing.assert_array_equal(y, x)
        assert rep.matvecs == 0
        # a negative order once measured (0.0, 0.0) here and raised on any other operator
        with pytest.raises(ValueError, match="order"):
            measure_errors(L, x, 5.0, -1)

    def test_explicit_lambda_skips_estimation(self):
        y, rep = expm_multiply(P2, DIRAC2, 1.0, lambda_max=2.0)
        assert rep.setup_matvecs == 0

    def test_certified_error_holds(self):
        L = build_laplacian(erdos_renyi(90, 0.08, seed=3), 90)
        x = np.random.default_rng(4).standard_normal(90)
        for tol in (1e-3, 1e-5, 1e-8):
            _, rep = expm_multiply(L, x, 0.7, tol=tol)
            eps, eta = measure_errors(L, x, 0.7, rep.order, lambda_max=rep.lambda_max)
            assert eta <= tol
            assert eta <= rep.bound or rep.bound == 0.0

    def test_first_valid_order_runs_certified(self):
        # tau_eff 9.3e-4: order 0 is the first valid order of the new bound, and it certifies
        L = build_laplacian(erdos_renyi(60, 0.1, seed=3), 60)
        x = np.ones(60)
        x[0] = 1.5
        _, rep = expm_multiply(L, x, 1e-4, tol=1e-6, kind="new-generic")
        assert (rep.order, rep.kind, rep.matvecs) == (0, BoundKind.NEW_GENERIC, 0)
        _, eta = measure_errors(L, x, 1e-4, rep.order, lambda_max=rep.lambda_max)
        assert eta <= rep.bound <= 1e-6

    def test_mass_conserved(self):
        L = build_laplacian(erdos_renyi(70, 0.1, seed=9), 70)
        x = np.random.default_rng(5).standard_normal(70)
        y, _ = expm_multiply(L, x, 1.3, tol=1e-8)
        slack = math.sqrt(1e-8) * np.linalg.norm(x) * math.sqrt(70)
        assert y.sum() == pytest.approx(x.sum(), abs=slack)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            expm_multiply(P2, np.array([1.0, 0.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            expm_multiply(P2, DIRAC2, -1.0)
        with pytest.raises(ValueError):
            expm_multiply(P2, DIRAC2, 1.0, tol=0.0)


class TestMakePlan:
    def test_auto_resolves_by_crossover(self):
        L = build_laplacian(erdos_renyi(100, 0.1, seed=1), 100)
        x = np.random.default_rng(0).standard_normal(100)
        small = make_plan(L, x, [1e-4], 1e-5)
        large = make_plan(L, x, [5.0], 1e-5)
        assert small.kind is BoundKind.TAIL_GENERIC
        assert large.kind is BoundKind.TAIL_SPECIFIC

    def test_explicit_kind_respected(self):
        plan = make_plan(P2, DIRAC2, [1.0], 1e-5, kind="base-generic", lambda_max=2.0)
        assert plan.kind is BoundKind.BASELINE_GENERIC

    def test_specific_rejected_for_zero_sum_signal(self):
        x = np.array([1.0, -1.0])
        with pytest.raises(ValueError, match="sum to zero"):
            make_plan(P2, x, [1.0], 1e-5, kind="new-specific", lambda_max=2.0)
        # auto quietly falls back to the generic certificate
        assert make_plan(P2, x, [1.0], 1e-5, lambda_max=2.0).kind is BoundKind.TAIL_GENERIC

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
        assert ref.kind is (BoundKind.TAIL_SPECIFIC if kind == "auto" else BoundKind.NEW_SPECIFIC)
        assert (plan.order, plan.kind) == (ref.order, ref.kind)
        y, _ = expm_multiply(L, factor * x, 3.0, tol=1e-8, kind=kind)
        y_ref, _ = expm_multiply(L, x, 3.0, tol=1e-8, kind=kind)
        np.testing.assert_allclose(y / factor, y_ref, rtol=0.0, atol=1e-12 * np.abs(y_ref).max())

    @pytest.mark.parametrize("kind", ["auto", *BoundKind])
    def test_operator_not_known_psd_refused(self, kind):
        # path Laplacian minus 0.6 I, eigenvalues -0.6, 0.4 and 2.4. Unchecked,
        # auto at tau 20 reported a bound of 6.5e-9 for a measured squared
        # error of 0.67, and new-generic at tau 1 2.1e-9 for 8.5e-7
        a = build_laplacian([(0, 1), (1, 2)], 3).to_dense() - 0.6 * np.eye(3)
        op = SparseSymMatrix(3, [0, 2, 5, 7], [0, 1, 0, 1, 2, 1, 2], a[a != 0.0])
        for tau in (1.0, 20.0):
            with pytest.raises(ValueError, match="row 0 has diagonal 0.4 below 1.0"):
                expm_multiply(op, [1.0, 0.3, -0.2], tau, tol=1e-8, kind=kind)

    def test_psd_operators_accepted(self):
        path = os.path.join(os.path.dirname(__file__), "data", "weighted.txt")
        weighted = build_laplacian(*load_graph(path))
        star = build_laplacian([(0, 1), (0, 2), (0, 3)], 4, kind="normalized")
        # the normalized star is not diagonally dominant: only its mark admits it
        with pytest.raises(ValueError, match="row 0 has diagonal 1.0 below"):
            make_plan(SparseSymMatrix(4, star.row_ptr, star.col_idx, star.values),
                      np.ones(4), [1.0], 1e-8)
        direct = SparseSymMatrix(2, [0, 2, 4], [0, 1, 0, 1], [1.0, -1.0, -1.0, 1.0])
        ops = [weighted, star, direct]
        for op in ops + [op.scaled(0.3) for op in ops]:
            x = np.arange(1.0, op.n + 1.0)
            for kind in ["auto", *BoundKind]:
                if op.kernel_vector is None and kind in SPECIFIC:
                    # admitted, but with no kernel vector only the generic bounds hold
                    with pytest.raises(ValueError, match="no known kernel vector"):
                        make_plan(op, x, [1.0], 1e-8, kind=kind)
                else:
                    make_plan(op, x, [1.0], 1e-8, kind=kind)

    def test_psd_check_reads_padded_planes_in_place(self):
        # a kernel-less operator with rows of at most 8 entries is checked
        # from its planes, which hold each row's entries in CSR order, so
        # every row sum has the bits of the CSR pass and no CSR array is
        # gathered. Each diagonal is set to exactly that sum, which the
        # check admits with no slack; one ulp below it, row 77 is refused.
        rng = np.random.default_rng(6)
        edges = [(i, j, w) for (i, j), w in zip(lattice_edges(12, 12),
                                                 rng.uniform(0.1, 3.0, 264))]
        csr = build_laplacian(edges, 144)
        rows = np.repeat(np.arange(144), np.diff(csr.row_ptr))
        on_diag = rows == csr.col_idx
        sums = np.zeros(144)
        for k in np.flatnonzero(~on_diag):  # one addition at a time, in CSR order
            sums[rows[k]] += abs(csr.values[k])
        for row, expected in ((None, None), (77, np.nextafter(sums[77], 0.0))):
            vals = csr.values.copy()
            vals[on_diag] = sums
            if row is not None:
                vals[on_diag.nonzero()[0][row]] = expected
            op = SparseSymMatrix(144, csr.row_ptr, csr.col_idx, vals)
            assert op.kernel_vector is None and op._cols is not None
            if row is None:
                chebheat.diffusion._require_psd(op)
            else:
                with pytest.raises(ValueError) as info:
                    chebheat.diffusion._require_psd(op)
                assert (f"row 77 has diagonal {float(expected)!r} below {float(sums[77])!r},"
                        in str(info.value))
            assert op._col_idx is None and op._values is None


# squared relative error that rounding alone leaves: an a-priori bound far
# below it (the bound at a small scale of a run planned for a large one) is
# met up to this dust
ROUNDING = 1e-20


class TestAutoOrder:
    """``auto`` runs the tail kind of the signal's variant: the smallest certified order."""

    def test_baseline_past_the_cap_keeps_the_new_order(self):
        # generic pair at tau_eff 8500: the new bound certifies 19001, the baseline
        # none, and the summed tail no fewer: past its 1e-300 cutoff it adds nothing
        with pytest.raises(OrderCapError):
            min_order(BoundKind.BASELINE_GENERIC, 8500.0, 1e-8)
        assert min_order(BoundKind.NEW_GENERIC, 8500.0, 1e-8) == 19001
        assert min_order(BoundKind.TAIL_GENERIC, 8500.0, 1e-8) == 19001

    @pytest.mark.parametrize("x, tail", [
        (DIRAC2, BoundKind.TAIL_SPECIFIC),
        (np.array([1.0, -1.0]), BoundKind.TAIL_GENERIC),
    ])
    def test_every_family_past_the_cap_raises_the_tail_message(self, x, tail):
        # tau_eff 1e7 on the two-node path with lambda_max 2
        ratio = energy_ratio(x, P2)
        for kind in (BoundKind.NEW_GENERIC, BoundKind.BASELINE_GENERIC):
            with pytest.raises(OrderCapError):
                min_order(kind, 1e7, 1e-8, ratio=ratio)
        with pytest.raises(OrderCapError) as expected:
            min_order(tail, 1e7, 1e-8, ratio=ratio)
        with pytest.raises(OrderCapError) as err:
            make_plan(P2, x, [1e7], 1e-8, lambda_max=2.0)
        assert str(err.value) == str(expected.value)
        assert f"for {tail.value} at" in str(err.value)

    def test_lattice_dirac_past_the_crossover_meets_its_bounds(self):
        # tau_eff 400: the tail certifies 91, where base-specific needs 145 and
        # new-specific 211; lambda_max is the ceiling 8, the true value 7.95
        op = build_laplacian(lattice_edges(20, 20), 400)
        x = np.eye(1, 400, 0)[0]
        scales = [1.0, 10.0, 50.0, 100.0]
        plan = make_plan(op, x, scales, 1e-8)
        assert plan.kind is BoundKind.TAIL_SPECIFIC
        assert plan.order == 91
        ratio = energy_ratio(x, op)
        assert [min_order(kind, plan.tau_effs[-1], 1e-8, ratio=ratio)
                for kind in SPECIFIC] == [211, 145, 91]
        results = expm_multiscale(op, x, scales, tol=1e-8)
        for (_, rep), tau in zip(results, scales):
            _, eta = measure_errors(op, x, tau, rep.scale_order, lambda_max=rep.lambda_max)
            assert rep.kind is BoundKind.TAIL_SPECIFIC and rep.order == 91
            assert rep.scale_order == min_order(rep.kind, rep.tau_eff, 1e-8, ratio=ratio)
            assert eta <= rep.bound + ROUNDING and rep.bound <= 1e-8, (tau, eta, rep.bound)
        y, rep = expm_multiply(op, x, 100.0, tol=1e-8)
        assert (rep.kind, rep.order) == (BoundKind.TAIL_SPECIFIC, 91)
        np.testing.assert_array_equal(y, results[-1][0])

    @pytest.mark.parametrize("tau, order", [(10.0, 86), (100.0, 283)])
    def test_er_normal_signal_past_the_crossover_meets_its_bound(self, tau, order):
        # ``order`` is what auto ran before the tail kinds, base-specific at the
        # power estimate; the tail at the larger certified ceiling needs fewer
        op = build_laplacian(erdos_renyi(300, 0.05, seed=1), 300)
        x = np.random.default_rng(1).standard_normal(300)
        _, rep = expm_multiply(op, x, tau, tol=1e-8)
        assert rep.kind is BoundKind.TAIL_SPECIFIC and rep.order < order
        assert rep.order == min_order(rep.kind, rep.tau_eff, 1e-8, ratio=energy_ratio(x, op))
        _, eta = measure_errors(op, x, tau, rep.order, lambda_max=rep.lambda_max)
        assert eta <= rep.bound <= 1e-8, (eta, rep.bound)


class TestTailAudit:
    """Dense-oracle audits at the tail kinds' orders, on graphs of at most 60 nodes."""

    @pytest.mark.parametrize("name", ["er", "lattice", "normalized"])
    def test_measured_within_bound_within_tol(self, name):
        op = {"er": lambda: build_laplacian(erdos_renyi(60, 0.1, seed=2), 60),
              "lattice": lambda: build_laplacian(lattice_edges(7, 8), 56),
              "normalized": lambda: build_laplacian(erdos_renyi(50, 0.2, seed=3), 50,
                                                    kind="normalized")}[name]()
        rng = np.random.default_rng(4)
        signals = [rng.standard_normal(op.n), np.eye(1, op.n, 5)[0],
                   1.0 + 0.1 * rng.standard_normal(op.n)]
        checked = 0
        for x in signals:
            for tol in (1e-4, 1e-8, 1e-12):
                scales = [0.01, 0.5, 5.0, 60.0]
                results = expm_multiscale(op, x, scales, tol=tol)
                for (_, rep), tau in zip(results, scales):
                    assert rep.kind in (BoundKind.TAIL_GENERIC, BoundKind.TAIL_SPECIFIC)
                    _, eta = measure_errors(op, x, tau, rep.scale_order,
                                            lambda_max=rep.lambda_max)
                    assert eta <= rep.bound + ROUNDING and rep.bound <= tol, (tau, tol, eta, rep)
                    checked += 1
        assert checked == 36

    def test_given_lambda_max_on_the_command_line(self, tmp_path):
        # a combinatorial graph with lambda_max given as 2 * max degree, a certified
        # ceiling, past the crossover: every column within the bound at its own
        # order, and K the largest scale's order
        n, tau = 40, 25.0
        edges = erdos_renyi(n, 0.15, seed=6)
        op = build_laplacian(edges, n)
        lam = 2.0 * float(np.max(op.to_dense().diagonal()))
        out = tmp_path / "out.csv"
        assert main(["diffuse", "--graph", "er:40:0.15:6", "--signal", "normal:7",
                     "--scales", f"1,{tau}", "--tol", "1e-9", "--lambda-max", repr(lam),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        head = dict(field.split("=") for field in lines[2][2:].split())
        assert head["kind"] == "tail-specific" and float(head["lambda_max"]) == lam
        assert float(head["bound"]) <= 1e-9
        cols = np.loadtxt(lines[4:], delimiter=",")
        x = load_signal("normal:7", n)
        ratio = energy_ratio(x, op)
        orders = [min_order(BoundKind.TAIL_SPECIFIC, lam * t / 2.0, 1e-9, ratio=ratio)
                  for t in (1.0, tau)]
        assert orders[0] < orders[1] == int(head["K"])
        for j, (t, order) in enumerate(zip((1.0, tau), orders)):
            w = exact_diffusion(op, x, t)
            eta = float((cols[:, j + 1] - w) @ (cols[:, j + 1] - w)) / float(w @ w)
            bound = math.exp(log_bound_value("tail-specific", order, lam * t / 2.0, ratio))
            assert eta <= bound + ROUNDING and bound <= 1e-9, (t, eta, bound)
        assert int(head["K"]) < min(
            min_order(kind, lam * tau / 2.0, 1e-9, ratio=ratio)
            for kind in (BoundKind.NEW_SPECIFIC, BoundKind.BASELINE_SPECIFIC))

    def test_golden_tail_run_meets_its_bounds(self):
        # the run pinned by tests/data/diffuse_per_scale.csv, each scale audited
        # at its own order
        op = build_laplacian(erdos_renyi(50, 0.2, seed=3), 50, kind="normalized")
        x = load_signal("normal:3", 50)
        scales = [0.0, 1.0, 10.0, 100.0]
        results = expm_multiscale(op, x, scales, tol=1e-10)
        assert (results[0][1].kind, results[0][1].order) == (BoundKind.TAIL_SPECIFIC, 55)
        for (_, rep), tau in zip(results, scales):
            _, eta = measure_errors(op, x, tau, rep.scale_order, lambda_max=rep.lambda_max)
            assert eta <= rep.bound + ROUNDING and rep.bound <= 1e-10, (tau, eta, rep.bound)


def _degree_orthogonal_signals(edges, n):
    # 20 signals ones + 0.3 N(0, 1), each with its sqrt(deg) component removed,
    # and each again with 1e-6 of that unit component put back
    a = np.asarray(edges, dtype=np.float64)
    u = np.sqrt(np.bincount(a[:, :2].astype(np.int64).ravel(), minlength=n))
    u /= np.linalg.norm(u)
    rng = np.random.default_rng(3)
    signals = []
    for _ in range(20):
        x = np.ones(n) + 0.3 * rng.standard_normal(n)
        x -= (x @ u) * u
        signals += [x, x + 1e-6 * np.linalg.norm(x) * u]
    return signals


class TestKernelRule:
    """The specific bounds hold only through the operator's kernel vector."""

    @pytest.mark.parametrize("seed, tau", [(3, 32.0), (1, 8.0)])
    def test_normalized_irregular_graph_bound_holds(self, seed, tau):
        # read against the constant vector, the worst of these signals on
        # seed 3 at tau 32 got K = 28 and a bound of 2.2e-9 for a measured
        # squared error of 115
        edges = erdos_renyi(150, 0.06, seed)
        L = build_laplacian(edges, 150, kind="normalized")
        for x in _degree_orthogonal_signals(edges, 150):
            for kind in ("auto", "new-specific"):
                try:
                    _, rep = expm_multiply(L, x, tau, tol=1e-8, kind=kind)
                except ValueError as exc:
                    assert kind != "auto" and "kernel vector" in str(exc)
                    continue
                _, eta = measure_errors(L, x, tau, rep.order, lambda_max=rep.lambda_max)
                assert eta <= rep.bound, (kind, rep.kind, rep.order, rep.bound, eta)

    def test_direct_operator_gets_a_generic_certificate(self):
        # the path Laplacian plus 0.5 I, built directly. Read against the
        # constant vector, auto picked new-specific and reported a bound of
        # 1.7e-9 at tau 40 for a measured squared error of 26
        n = 40
        a = build_laplacian(path_edges(n), n).to_dense() + 0.5 * np.eye(n)
        rows, cols = np.nonzero(a)
        row_ptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        op = SparseSymMatrix(n, row_ptr, cols, a[rows, cols])
        x = np.ones(n)
        for tau in (1.0, 40.0):
            for kind in SPECIFIC:
                with pytest.raises(ValueError, match="no known kernel vector"):
                    expm_multiply(op, x, tau, tol=1e-8, kind=kind)
            _, rep = expm_multiply(op, x, tau, tol=1e-8)
            assert rep.kind is BoundKind.TAIL_GENERIC
            _, eta = measure_errors(op, x, tau, rep.order, lambda_max=rep.lambda_max)
            assert eta <= rep.bound <= 1e-8, (tau, rep.order, rep.bound, eta)


class TestMultiscale:
    def test_matches_single_scale_at_same_order(self):
        # auto sums each scale to its own order, an explicit kind every scale
        # to the largest scale's; either way the run's order is the recurrence's
        L = build_laplacian(erdos_renyi(120, 0.06, seed=3), 120)
        x = np.random.default_rng(11).standard_normal(120)
        scales = [0.01, 0.1, 0.7, 2.0]
        ratio = energy_ratio(x, L)
        for kind in (AUTO, BoundKind.TAIL_SPECIFIC):
            results = expm_multiscale(L, x, scales, tol=1e-5, kind=kind)
            plan = make_plan(L, x, scales, 1e-5, kind=kind)
            top = min_order(plan.kind, max(plan.tau_effs), 1e-5, ratio=ratio)
            expected = ([min_order(plan.kind, t, 1e-5, ratio=ratio) for t in plan.tau_effs]
                        if kind == AUTO else [top] * len(scales))
            assert list(plan.scale_orders) == expected and plan.order == top
            assert (kind != AUTO) == (len(set(expected)) == 1)
            for (y, rep), tau_eff, order in zip(results, plan.tau_effs, expected):
                ref = summed_term_by_term(L, plan.lambda_max, x, order, tau_eff)
                np.testing.assert_array_equal(y, ref)
                assert (rep.order, rep.matvecs, rep.scale_order) == (top, top, order)

    def test_memory_holds_the_outputs_not_the_basis(self):
        # each basis row goes into every output as it is drawn: the peak is
        # the m outputs, three recurrence vectors and the scaled operator's
        # values with one matvec's gathered inputs and products (nnz each),
        # whatever the order
        n = 4000
        L = build_laplacian([(i, (i + 1) % n) for i in range(n)], n, kind="normalized")
        x = np.random.default_rng(0).standard_normal(n)
        scales = [0.5, 200.0]
        tracemalloc.start()
        try:
            results = expm_multiscale(L, x, scales, tol=1e-8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        vectors = 2 * (len(scales) + 3 + 3 * L.nnz / n)
        assert results[0][1].order > vectors  # a stored basis alone would not fit
        assert peak <= vectors * n * 8, (peak, results[0][1].order)

    def test_duplicate_scales_identical(self):
        results = expm_multiscale(P2, DIRAC2, [1.5, 1.5], tol=1e-6, lambda_max=2.0)
        np.testing.assert_array_equal(results[0][0], results[1][0])

    def test_output_preserves_input_order(self):
        results = expm_multiscale(P2, DIRAC2, [2.0, 0.1], tol=1e-6, lambda_max=2.0)
        assert results[0][1].tau == 2.0
        assert results[1][1].tau == 0.1

    def test_every_scale_certified(self):
        L = build_laplacian(erdos_renyi(80, 0.1, seed=7), 80)
        x = np.random.default_rng(2).standard_normal(80)
        scales = [0.05, 0.3, 1.0]
        results = expm_multiscale(L, x, scales, tol=1e-6)
        for (y, rep), tau in zip(results, scales):
            # each scale has its own order, so no scale's bound need dominate another's
            _, eta = measure_errors(L, x, tau, rep.scale_order, lambda_max=rep.lambda_max)
            assert rep.bound <= 1e-6
            assert eta <= rep.bound

    @pytest.mark.parametrize("kind", [AUTO] + list(BoundKind))
    def test_reports_carry_the_plan_bounds(self, kind):
        # each report's bound is the plan's, fixed before the first matvec: the
        # certificate at the scale's order, exactly 0 at a zero scale. auto
        # gives each scale its own order, an explicit kind the largest scale's
        lattice = build_laplacian(lattice_edges(12, 12), 144)
        er = build_laplacian(erdos_renyi(150, 0.1, seed=5), 150, kind="normalized")
        rng = np.random.default_rng(6)
        for op, x in ((lattice, np.eye(1, 144, 40)[0]), (er, rng.standard_normal(150))):
            scales = [0.3, 0.0, 4.0, 1e-3, 0.0, 12.0]
            plan = make_plan(op, x, scales, 1e-8, kind=kind)
            results = expm_multiscale(op, x, scales, tol=1e-8, kind=kind)
            ratio = energy_ratio(x, op)
            orders = [min_order(plan.kind, t, 1e-8, ratio=ratio) if kind == AUTO else plan.order
                      for t in plan.tau_effs]
            assert list(plan.scale_orders) == orders and plan.order == max(orders)
            expected = [math.exp(log_bound_value(plan.kind, k, t, ratio)).hex()
                        for k, t in zip(orders, plan.tau_effs)]
            assert [rep.bound.hex() for _, rep in results] == [b.hex() for b in plan.bounds]
            assert [b.hex() for b in plan.bounds] == expected
            assert plan.bounds[1] == plan.bounds[4] == 0.0 < plan.bounds[5]

    def test_smoothing_monotone_in_scale(self):
        # diffusion only ever flattens a signal, so variance falls with tau
        L = build_laplacian(erdos_renyi(80, 0.1, seed=8), 80)
        x = np.random.default_rng(3).standard_normal(80)
        results = expm_multiscale(L, x, [0.1, 0.5, 2.0, 8.0], tol=1e-9)
        variances = [float(np.var(y)) for y, _ in results]
        assert all(a > b for a, b in zip(variances, variances[1:]))


class TestPerScaleOrders:
    """``auto`` sums each scale to its own order, in one recurrence to the largest."""

    SCALES = [0.0, 1e-7, 1e-4, 1e-3, 1e-2, 0.05, 0.3, 2.0, 15.0, 3.0, 0.0, 40.0]

    @staticmethod
    def _signal(n):
        # -0.0 beside positive entries: an output keeps a -0.0 only if it adds
        # no column past its own order
        x = np.zeros(n)
        x[::5] = -0.0
        x[1::5] = 1.0
        x[3::7] = 0.25
        return x

    def _check_single_scale_bits(self, op, x, scales, tol=1e-8):
        results = expm_multiscale(op, x, scales, tol=tol)
        plan = make_plan(op, x, scales, tol)
        ratio = energy_ratio(x, op)
        orders = [min_order(plan.kind, t, tol, ratio=ratio) for t in plan.tau_effs]
        assert list(plan.scale_orders) == orders
        assert plan.order == max(orders) == min_order(plan.kind, max(plan.tau_effs), tol,
                                                      ratio=ratio)
        for (y, rep), tau, order in zip(results, scales, orders):
            single, single_rep = expm_multiply(op, x, tau, tol=tol, kind=plan.kind,
                                               lambda_max=plan.lambda_max)
            assert y.tobytes() == single.tobytes(), (tau, order)
            assert rep.scale_order == single_rep.order == order
            assert (rep.order, rep.matvecs) == (plan.order, plan.order)
        # a zero scale, positive scales at orders 0 and 1, and the -0.0 kept
        assert {0, 1} <= set(orders) and orders[0] == 0 < plan.order
        negative_zero = (x == 0.0) & np.signbit(x)
        assert all(np.signbit(y[negative_zero]).all()
                   for y, rep in results if rep.scale_order == 0)
        return results

    def test_inline_outputs_are_their_single_scale_runs(self, monkeypatch):
        monkeypatch.setattr(chebyshev, "_helper_thread", None)  # any use would raise
        op = build_laplacian(lattice_edges(6, 7), 42)
        scales = self.SCALES[:6] + [40.0]
        assert len(scales) < chebyshev._OVERLAP_MIN_SCALES
        self._check_single_scale_bits(op, self._signal(42), scales)

    def test_helper_outputs_are_their_single_scale_runs(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        started = []
        helper_thread = chebyshev._helper_thread

        def counted(work, cpus, name):
            started.append(name)
            return helper_thread(work, cpus, name)

        monkeypatch.setattr(chebyshev, "_helper_thread", counted)
        n = 64 * 64
        assert len(self.SCALES) >= chebyshev._OVERLAP_MIN_SCALES
        assert n >= chebyshev._OVERLAP_MIN_LENGTH
        op = build_laplacian(lattice_edges(64, 64), n)
        self._check_single_scale_bits(op, self._signal(n), self.SCALES)
        assert started == ["chebheat-combine"]  # the multiscale run; single scales add inline

    def test_explicit_kind_keeps_one_order(self):
        # every scale is certified at the shared order, and its series is
        # summed through its last nonzero coefficient there
        op = build_laplacian(lattice_edges(6, 7), 42)
        x = self._signal(42)
        plan = make_plan(op, x, self.SCALES, 1e-8, kind=BoundKind.TAIL_SPECIFIC)
        assert plan.scale_orders == (plan.order,) * len(self.SCALES)
        terms = op.scaled(2.0 / plan.lambda_max).matvec
        for (y, rep), tau_eff in zip(expm_multiscale(op, x, self.SCALES, tol=1e-8,
                                                     kind=BoundKind.TAIL_SPECIFIC),
                                     plan.tau_effs):
            c = cheb_coefficients(tau_eff, plan.order)
            ref = series_sum(c[:np.flatnonzero(c)[-1] + 1], cheb_terms(terms, x))
            assert y.tobytes() == ref.tobytes() and rep.scale_order == plan.order

    @pytest.mark.parametrize("kind", [AUTO] + [k.value for k in BoundKind])
    def test_zero_scale_returns_the_input_under_every_kind(self, kind):
        # a zero scale's series is c[0]/2 x alone, whatever order the other
        # scales take: its output keeps every -0.0 of x
        op = build_laplacian(lattice_edges(6, 7), 42)
        x = self._signal(42)
        single, rep = expm_multiply(op, x, 0.0, tol=1e-8, kind=kind)
        assert single.tobytes() == x.tobytes() and rep.order == 0
        results = expm_multiscale(op, x, self.SCALES, tol=1e-8, kind=kind)
        assert results[0][1].order > 0
        for (y, _), tau in zip(results, self.SCALES):
            if tau == 0.0:
                assert y.tobytes() == single.tobytes()

    def test_recurrence_ends_at_the_longest_series(self, monkeypatch):
        # new-generic certifies order 2238 at tau_eff 1000, and every
        # coefficient there past 1280 underflows to zero: the recurrence stops
        # at 1280, the report says so, and the terms it leaves out are zeros
        op = build_laplacian(path_edges(10), 10)
        x = np.random.default_rng(12).standard_normal(10)
        scales, tau_effs = [0.0, 1.0, 500.0], [0.0, 2.0, 1000.0]
        counts = {"matvecs": 0}
        inner = SparseSymMatrix.matvec

        def counting_matvec(self, v):
            counts["matvecs"] += 1
            return inner(self, v)

        monkeypatch.setattr(SparseSymMatrix, "matvec", counting_matvec)
        results = expm_multiscale(op, x, scales, tol=1e-8, kind="new-generic", lambda_max=4.0)
        monkeypatch.undo()
        assert [rep.tau_eff for _, rep in results] == tau_effs
        assert [(rep.order, rep.matvecs) for _, rep in results] == [(2238, 1280)] * 3
        assert counts["matvecs"] == 1280
        for (y, _), tau_eff in zip(results, tau_effs):
            assert y.tobytes() == summed_term_by_term(op, 4.0, x, 2238, tau_eff).tobytes()

    def test_lattice_bounds_no_longer_underflow(self):
        # 200x200 lattice, 32 scales from 1e-2 to 1e2, tol 1e-8: at one shared
        # order 9 to 14 of the bounds read exactly 0.0; at each scale's own
        # order every positive scale's bound is a certificate near tol
        side = 200
        op = build_laplacian(lattice_edges(side, side), side * side)
        scales = [float(t) for t in np.logspace(-2.0, 2.0, 32)]
        c = (np.arange(side) + 0.5) * math.pi / side
        bump = np.exp(-((np.arange(side) - 90.0) ** 2) / 72.0)
        for x in (np.eye(1, side * side, 20100)[0], np.outer(bump, bump).ravel(),
                  (1.0 + 0.5 * np.outer(np.cos(3.0 * c), np.cos(2.0 * c))).ravel()):
            plan = make_plan(op, x, scales, 1e-8)
            assert all(1e-13 < b <= 1e-8 for b in plan.bounds), plan.bounds
            shared = make_plan(op, x, scales, 1e-8, kind=plan.kind)
            assert shared.order == plan.order and 0.0 in shared.bounds


class TestThreads:
    def test_matvecs_run_on_the_calling_thread(self, monkeypatch):
        # the helper thread of combine only adds rows: every matvec, and so
        # every count or span a wrapper around it keeps, stays on the caller
        force_combine_helper(monkeypatch)
        seen = []
        matvec = SparseSymMatrix.matvec

        def recorded(self, v):
            seen.append((threading.get_ident(), threading.active_count()))
            return matvec(self, v)

        monkeypatch.setattr(SparseSymMatrix, "matvec", recorded)
        L = build_laplacian(erdos_renyi(60, 0.1, seed=3), 60)
        x = np.random.default_rng(3).standard_normal(60)
        before = threading.enumerate()
        for call in (lambda: expm_multiscale(L, x, [0.1, 1.0, 5.0], tol=1e-8),
                     lambda: expm_multiply(L, x, 2.0, tol=1e-8),
                     lambda: measure_errors(L, x, 2.0, 30)):
            seen.clear()
            call()
            assert {ident for ident, _ in seen} == {threading.get_ident()}
            # the helper was alive beside the basis matvecs, and is gone
            assert max(count for _, count in seen) == len(before) + 1
            assert threading.enumerate() == before


def _two_star():
    """The two-star graph on which power iteration stops on a plateau.

    Hub 0 has leaves 1..20 at weight 1.0, hub 21 leaves 22..41 at 1.05,
    and a chain 1, 42, ..., 51, 22 joins them at 1.0; node v is relabelled
    ``default_rng(26).permutation(52)[v]``, which makes the heavier hub
    node 20. The estimate stops at 21.22 against a spectral radius of
    22.05, 3.8% low; the certified ceiling ``auto`` takes is 22.1.
    """
    edges = [(0, v, 1.0) for v in range(1, 21)] + [(21, v, 1.05) for v in range(22, 42)]
    chain = [1, *range(42, 52), 22]
    edges += [(a, b, 1.0) for a, b in zip(chain, chain[1:])]
    label = np.random.default_rng(26).permutation(52)
    return build_laplacian([(int(label[a]), int(label[b]), w) for a, b, w in edges], 52)


# the paper kinds rescale by the power estimate, so on the two-star graph
# their bounds are false: measured 1.5e-5, 0.73 and 2.2e10 for new-specific,
# 1.3e-4 and 4.5e11 for base-specific, all against bounds below 1e-8. The
# fix that refutes a low estimate from the recurrence's rows flips these
PAPER_KIND_HOLE = pytest.mark.xfail(strict=True, raises=AssertionError,
                                    reason="the power estimate is 3.8% low on the two-star graph")


@pytest.mark.parametrize("kind, tau", [
    pytest.param("new-specific", 1.0, marks=PAPER_KIND_HOLE),
    pytest.param("new-specific", 5.0, marks=PAPER_KIND_HOLE),
    pytest.param("new-specific", 20.0, marks=PAPER_KIND_HOLE),
    pytest.param("base-specific", 5.0, marks=PAPER_KIND_HOLE),
    pytest.param("base-specific", 20.0, marks=PAPER_KIND_HOLE),
    ("auto", 1.0),
    ("auto", 5.0),
    ("auto", 20.0),
])
def test_two_star_measures_within_the_reported_bound(kind, tau):
    L = _two_star()
    x = load_signal("dirac:20", 52)
    _, rep = expm_multiply(L, x, tau, tol=1e-8, kind=kind)
    _, measured = measure_errors(L, x, tau, rep.order, lambda_max=rep.lambda_max)
    assert rep.bound <= 1e-8
    assert measured <= rep.bound
