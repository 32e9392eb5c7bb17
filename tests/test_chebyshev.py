"""Coefficients, basis recurrence, recombination, scalar evaluation."""

import math
import os
import sys
import threading
import time
import weakref
from itertools import islice

import numpy as np
import pytest

from chebheat.chebyshev import _IN_FLIGHT, build_basis, cheb_coefficients, cheb_terms, combine
from chebheat.diffusion import estimate_lambda_max
from chebheat.graphs import build_laplacian, erdos_renyi

from helpers import eval_scalar, force_combine_helper, lattice_edges, series_sum

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
        combine(build_basis(L, [1.0, 0.0], 2), cheb_coefficients(1.0, 3)[None])
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
            assert y.tobytes() == combine(basis, c[None])[0].tobytes()
            assert y.tobytes() == series_sum(c, basis).tobytes()


def test_combine_matches_dense_exponential():
    n = 30
    L = build_laplacian(erdos_renyi(n, 0.25, seed=9), n)
    dense = L.to_dense()
    lam = float(np.linalg.eigvalsh(dense).max()) * 1.01
    x = np.random.default_rng(3).standard_normal(n)
    tau = 0.8
    op = L.scaled(2.0 / lam)
    [y] = combine(build_basis(op, x, 40), cheb_coefficients(lam * tau / 2.0, 40)[None])
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


@pytest.fixture(params=["helper", "inline"])
def cpus(request, monkeypatch):
    """``combine`` with its helper thread, or with the additions inline on one CPU."""
    if request.param == "helper":
        force_combine_helper(monkeypatch)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    return request.param


def _rescaled(edges, n):
    L = build_laplacian(edges, n)
    return L.scaled(2.0 / estimate_lambda_max(L))


GRAPHS = {
    "lattice-20x20": lambda: _rescaled(lattice_edges(20, 20), 400),
    "er:200:0.05:1": lambda: _rescaled(erdos_renyi(200, 0.05, seed=1), 200),
}


@pytest.mark.parametrize("m", [1, 2, 32])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_combine_bitwise_equals_partial_sums(cpus, graph, m):
    op = GRAPHS[graph]()
    x = np.random.default_rng(m).standard_normal(op.n)
    order = 70
    C = np.stack([cheb_coefficients(t, order) for t in np.logspace(-2.0, 1.5, m)])
    together = combine(build_basis(op, x, order), C)
    assert together.shape == (m, op.n)
    for c, y in zip(C, together):
        # the serial reference: one scale, one partial sum at a time
        assert y.tobytes() == series_sum(c, build_basis(op, x, order)).tobytes()


def test_terms_are_not_written_after_they_are_yielded():
    # combine adds a row on its helper thread while later rows are drawn
    op = GRAPHS["lattice-20x20"]()
    terms = cheb_terms(op.matvec, np.random.default_rng(0).standard_normal(op.n))
    drawn = [(t, t.copy()) for t in islice(terms, 30)]
    for _ in range(20):
        next(terms)
    assert len({id(t) for t, _ in drawn}) == len(drawn)  # no buffer is reused
    for k, (t, copy) in enumerate(drawn):
        assert t.tobytes() == copy.tobytes(), k


def _series_case():
    op = GRAPHS["er:200:0.05:1"]()
    x = np.random.default_rng(5).standard_normal(op.n)
    return op, x, np.stack([cheb_coefficients(t, 30) for t in (0.5, 2.0, 8.0)])


class Abort(BaseException):
    """Not an ``Exception``: ``combine`` must hand it on all the same."""


class _AbortingRow:
    """A row that numpy hands every ufunc to, and that raises ``abort`` in each."""

    def __init__(self, abort):
        self.abort = abort

    def __array_ufunc__(self, *args, **kwargs):
        raise self.abort


@pytest.mark.parametrize("error", [RuntimeError, Abort])
def test_combine_reraises_row_stream_error(cpus, error):
    op, x, C = _series_case()
    boom = error("row stream failed")

    def rows():
        yield from islice(cheb_terms(op.matvec, x), 6)
        raise boom

    before = threading.enumerate()
    with pytest.raises(error) as info:
        combine(rows(), C)
    assert info.value is boom
    assert threading.enumerate() == before


@pytest.mark.parametrize("error", [ValueError, Abort])
def test_combine_reraises_addition_error_and_stops_drawing(cpus, error):
    op, x, C = _series_case()
    drawn = []
    abort = Abort("addition aborted")

    def bad(t):  # a row of the wrong shape, or one that aborts every ufunc
        return np.append(t, 0.0) if error is ValueError else _AbortingRow(abort)

    def rows():  # endless, with one row that cannot be added
        for k, t in enumerate(cheb_terms(op.matvec, x)):
            drawn.append(k)
            yield bad(t) if k == 3 else t

    before = threading.enumerate()
    with pytest.raises(error, match="broadcast" if error is ValueError else "aborted") as info:
        combine(rows(), C)
    assert error is ValueError or info.value is abort
    assert threading.enumerate() == before
    # rows 0 to 3, the rows queued behind row 3, and one drawn before the
    # failure shows: no further matvecs once the helper has failed
    assert len(drawn) <= 4 + _IN_FLIGHT + 1


class _FailingRow:
    """A row whose every ufunc sets ``failed`` and raises ``ValueError``."""

    def __init__(self, failed):
        self.failed = failed

    def __array_ufunc__(self, *args, **kwargs):
        self.failed.set()
        raise ValueError("row 3 cannot be added")


def test_combine_reads_waiting_answers_before_drawing(monkeypatch):
    # the helper's answer for row 3 is waiting before row 5 is drawn, with
    # slots still free: combine must read it and re-raise, not draw row 5
    force_combine_helper(monkeypatch)
    op, x, C = _series_case()
    failed = threading.Event()
    drawn = []

    def rows():
        for k, t in enumerate(cheb_terms(op.matvec, x)):
            if k == 4:
                assert failed.wait(timeout=10.0)
                time.sleep(0.05)  # time for the helper to answer row 3
            drawn.append(k)
            yield _FailingRow(failed) if k == 3 else t

    with pytest.raises(ValueError, match="row 3 cannot be added"):
        combine(rows(), C)
    assert 5 not in drawn, drawn


def test_combine_reraises_error_in_the_last_row(cpus):
    # no row is drawn after the last one fails, so its error is read after the join
    op, x, C = _series_case()
    rows = list(build_basis(op, x, 30))
    rows[-1] = np.append(rows[-1], 0.0)
    before = threading.enumerate()
    with pytest.raises(ValueError, match="broadcast"):
        combine(rows, C)
    assert threading.enumerate() == before


def test_rows_in_flight_stay_bounded(monkeypatch):
    # a row is drawn only once a slot is free, so at each draw the rows
    # alive are the new row, the signal and at most _IN_FLIGHT - 1 more:
    # those the helper has yet to answer, or the recurrence's last row
    force_combine_helper(monkeypatch)
    L = build_laplacian(lattice_edges(60, 60), 3600)
    op = L.scaled(2.0 / estimate_lambda_max(L))
    C = np.stack([cheb_coefficients(t, 80) for t in np.logspace(-2.0, 1.5, 32)])
    for seed in range(20):
        x = np.random.default_rng(seed).standard_normal(op.n)
        refs, alive = [], []

        def rows():
            for t in cheb_terms(op.matvec, x):
                refs.append(weakref.ref(t))
                alive.append(sum(r() is not None for r in refs))
                yield t

        combine(rows(), C)
        assert len(alive) == 81
        assert max(alive) <= _IN_FLIGHT + 1, seed


def test_combine_short_stream_leaves_no_thread(cpus):
    op, x, C = _series_case()
    before = threading.enumerate()
    with pytest.raises(ValueError, match="basis of order 12 cannot serve coefficients of order 30"):
        combine(build_basis(op, x, 12), C)
    assert threading.enumerate() == before


def test_concurrent_combines_keep_their_bits(cpus):
    # more callers than cores, each with its own helper, switching often
    op, x, C = _series_case()
    signals = [np.roll(x, s) for s in range(6)]
    expected = [combine(build_basis(op, v, 30), C).tobytes() for v in signals]
    got = [None] * len(signals)

    def run(i):
        for _ in range(5):
            got[i] = combine(build_basis(op, signals[i], 30), C).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,), daemon=True)
                   for i in range(len(signals))]
        for t in callers:
            t.start()
        deadline = time.monotonic() + 30.0
        for t in callers:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == expected


@pytest.mark.parametrize("n, m, helper", [
    (4096, 8, True),  # the smallest run that gets a helper
    (4095, 8, False),
    (4096, 7, False),
])
def test_helper_only_on_runs_that_repay_it(monkeypatch, n, m, helper):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    x = np.random.default_rng(2).standard_normal(n)
    threads = []

    def rows():  # a scaled shift stands in for the recurrence
        t = x
        while True:
            threads.append(threading.active_count())
            yield t
            t = 0.5 * np.roll(t, 1)

    before = threading.active_count()
    combine(rows(), np.stack([cheb_coefficients(t, 10) for t in np.linspace(0.1, 3.0, m)]))
    assert max(threads) == before + helper
