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
from chebheat.graphs import SparseSymMatrix, build_laplacian, erdos_renyi

from helpers import eval_scalar, force_combine_helper, lattice_edges, length_refusal, series_sum

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


def test_basis_checks_and_copies_its_signal(monkeypatch):
    # row 0 was the caller's array, and a NaN signal gave NaN rows
    L = build_laplacian([(0, 1), (1, 2)], 3)
    x = np.array([1.0, -2.0, 0.5])
    rows = list(build_basis(L, x, 2))
    assert rows[0].tobytes() == x.tobytes()
    assert not np.shares_memory(rows[0], x) and not rows[0].flags.writeable

    def no_matvec(*args):
        raise AssertionError("a matvec on a refused signal")

    monkeypatch.setattr(SparseSymMatrix, "matvec", no_matvec)
    for bad in ([1.0, np.nan, 0.5], [np.inf, 0.0, 0.0], [0.0, 0.0, -np.inf]):
        with pytest.raises(ValueError, match="^signal contains non-finite values$"):
            build_basis(L, bad, 2)
    for bad in ([1.0, 0.0], np.ones(4)):
        with pytest.raises(ValueError, match=length_refusal(len(bad), 3)):
            build_basis(L, bad, 2)


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


def _series_case(graph="er:200:0.05:1"):
    op = GRAPHS[graph]()
    x = np.random.default_rng(5).standard_normal(op.n)
    return op, x, np.stack([cheb_coefficients(t, 30) for t in (0.5, 2.0, 8.0)])


# the inf row's NaNs warn, on the helper thread too
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("case", ["underflow", "negative-zero", "inf-row"])
def test_zero_tail_stops_are_exact(cpus, case):
    # combine adds every column it is given, an underflowed tail included,
    # in the order series_sum adds them, so each output has its bits
    op = GRAPHS["lattice-20x20"]()
    order = 214
    x = np.random.default_rng(11).standard_normal(op.n)
    taus = (0.04, 0.3, 3.0, 400.0)
    if case == "negative-zero":  # +0 * t turns -0.0 into +0.0
        x = np.full(op.n, -0.0)
        x[[5, 211]] = (1.0, -2.0)
        taus = (0.0,) + taus
    C = np.stack([cheb_coefficients(t, order) for t in taus])
    assert not C[0, order // 2:].any()  # an underflowed tail, added all the same

    def rows():
        calls = []

        def apply(v):
            calls.append(1)
            w = op.matvec(v)
            if case == "inf-row" and len(calls) == 150:  # NaN spreads from here
                w[17] = np.inf
            return w

        return islice(cheb_terms(apply, x), order + 1)

    together = combine(rows(), C)
    for c, y in zip(C, together):
        assert y.tobytes() == series_sum(c, rows()).tobytes()
    if case == "negative-zero":
        assert together[0].tobytes() != x.tobytes()
    if case == "inf-row":
        assert np.isnan(together).any(axis=1).all()


def _random_stop_case(rng):
    """An operator, a signal and coefficients with zero tails, signed zeros and subnormals."""
    if rng.random() < 0.5:
        op = _rescaled(lattice_edges(5, 8), 40)  # padded planes
    else:
        op = _rescaled(erdos_renyi(60, 0.15, seed=int(rng.integers(100))), 60)
    # signed zeros and the smallest subnormals beside normal entries, so
    # that a first term holds -0.0 in some outputs, by sign or by underflow
    x = rng.choice([-1.0, 1.0], op.n) * np.exp(rng.uniform(-5.0, 5.0, op.n))
    special = rng.random(op.n) < rng.choice([0.0, 0.05, 0.4])
    x[special] = rng.choice([-0.0, 0.0, -5e-324, 5e-324], int(special.sum()))
    order = int(rng.integers(2, 60))
    C = np.stack([cheb_coefficients(t, order) for t in
                  rng.choice([0.0, 0.01, 0.05, 0.3, 2.0, 30.0], int(rng.integers(1, 9)))])
    # random tails of exact zeros of either sign, subnormal coefficients,
    # and first terms that underflow to +-0
    for c in C:
        tail = int(rng.integers(1, order + 1))
        if rng.random() < 0.5:
            c[tail:] = rng.choice([-0.0, 0.0], order + 1 - tail)
        elif rng.random() < 0.5:
            c[tail:] *= 1e-320
        if rng.random() < 0.2:
            c[0] = rng.choice([-5e-324, 5e-324, 0.0, -0.0])
    return op, x, C


# the injected inf and NaN warn, on the helper thread too
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_stops_give_the_bits_of_adding_every_column(cpus):
    # series_sum adds every column, and so does combine: zero tails, first
    # terms that hold -0.0 and non-finite rows give it the same bits
    rng = np.random.default_rng(1801 if cpus == "helper" else 1802)
    seen = {"zero tail": 0, "zero tail, NaN": 0, "-0.0 and a zero tail": 0}
    for trial in range(120):
        op, x, C = _random_stop_case(rng)
        order = C.shape[1] - 1
        bad_call = int(rng.integers(1, order + 1)) if rng.random() < 0.5 else None
        bad_node, bad_value = int(rng.integers(op.n)), rng.choice([np.inf, -np.inf, np.nan])

        def rows():
            calls = []

            def apply(v):
                calls.append(1)
                w = op.matvec(v)
                if len(calls) == bad_call:
                    w[bad_node] = bad_value
                return w

            return islice(cheb_terms(apply, x), order + 1)

        together = combine(rows(), C)
        for c, y in zip(C, together):
            assert y.tobytes() == series_sum(c, rows()).tobytes(), trial
            y0 = (0.5 * c[0]) * x
            if np.flatnonzero(c)[-1:].tolist() < [order - 1]:  # a zero tail
                if np.signbit(y0[y0 == 0.0]).any():
                    seen["-0.0 and a zero tail"] += 1
                else:
                    seen["zero tail"] += 1
                    seen["zero tail, NaN"] += bool(np.isnan(y).any())
    assert min(seen.values()) >= 20, seen  # every case was drawn


def test_each_output_stops_at_its_own_length(cpus):
    # coefficient vectors of their own lengths: each output has the bits of its
    # series alone, and the longest sets how many rows are drawn
    rng = np.random.default_rng(2301 if cpus == "helper" else 2302)
    seen = {"shorter": 0, "shorter, from -0.0": 0}
    for trial in range(60):
        op, x, C = _random_stop_case(rng)
        ragged = [c[:int(rng.integers(1, len(c) + 1))] for c in C]
        width = max(len(c) for c in ragged)
        calls = []

        def apply(v):
            calls.append(1)
            return op.matvec(v)

        together = combine(cheb_terms(apply, x), ragged)
        assert len(calls) == width - 1
        for c, y in zip(ragged, together):
            assert y.tobytes() == series_sum(c, cheb_terms(op.matvec, x)).tobytes(), trial
            if len(c) < width:
                y0 = (0.5 * c[0]) * x
                seen["shorter"] += 1
                seen["shorter, from -0.0"] += bool(np.signbit(y0[y0 == 0.0]).any())
    assert min(seen.values()) >= 10, seen


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad_value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("apply_kind", ["zeros", "random"])
def test_a_non_finite_entry_stays_in_every_later_row(apply_kind, bad_value):
    # the recurrence keeps a non-finite entry non-finite in every later
    # row, whatever apply returns at that node
    rng = np.random.default_rng(3)
    n, node = 50, 17

    def apply(v):
        return np.zeros(n) if apply_kind == "zeros" else rng.uniform(-1e3, 1e3, n)

    for k in range(6):
        x = rng.standard_normal(n)
        if k == 0:
            x[node] = bad_value
        terms = cheb_terms(apply, x)
        rows = [next(terms) for _ in range(k + 1)]
        rows[k][node] = bad_value  # placed in row k, before row k + 1 is made
        rows += [next(terms) for _ in range(12)]
        assert not any(np.isfinite(t[node]) for t in rows[k:]), (k, [t[node] for t in rows])
        assert all(np.isfinite(t).all() for t in rows[:k])


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


class _LateFailingRow:
    """A row whose addition waits until ``drawn`` holds ``rows`` rows, then raises."""

    def __init__(self, started, drawn, rows):
        self.started, self.drawn, self.rows = started, drawn, rows
        self.seen = None

    def __array_ufunc__(self, *args, **kwargs):
        self.started.set()
        deadline = time.monotonic() + 10.0
        while len(self.drawn) < self.rows and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)  # a caller with a free slot would draw another row here
        self.seen = len(self.drawn)
        raise ValueError("row 1 failed late")


def test_combine_wakes_when_the_helper_fails_during_a_wait(monkeypatch):
    # the helper holds row 1 alone while the caller draws until every slot
    # is taken, by row 1 and the _IN_FLIGHT - 1 rows queued behind it; then
    # row 1 fails. The caller, waiting for a slot, must wake and raise
    force_combine_helper(monkeypatch)
    op, x, C = _series_case()
    started, drawn = threading.Event(), []
    late = _LateFailingRow(started, drawn, _IN_FLIGHT + 1)
    raised = []

    def rows():
        for k, t in enumerate(cheb_terms(op.matvec, x)):
            if k == 2:
                assert started.wait(timeout=10.0)  # the helper took row 1 alone
            drawn.append(k)
            yield late if k == 1 else t

    def call():
        try:
            combine(rows(), C)
        except ValueError as exc:
            raised.append(exc)

    before = threading.enumerate()
    caller = threading.Thread(target=call, name="combine-caller", daemon=True)
    caller.start()
    caller.join(timeout=30.0)
    assert not caller.is_alive(), "combine still waits for a slot"
    assert [str(exc) for exc in raised] == ["row 1 failed late"]
    assert late.seen == _IN_FLIGHT + 1  # rows 0 to _IN_FLIGHT: no row drawn without a slot
    assert threading.enumerate() == before


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
    # more callers than cores, each with its own helper, switching often,
    # sharing one operator: its matvec sums padded planes on the lattice
    # and calls reduceat on the ER graph, and neither may share a buffer
    for graph in sorted(GRAPHS):
        op, x, C = _series_case(graph)
        assert (op._cols is not None) == graph.startswith("lattice")
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
        assert got == expected, graph


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
