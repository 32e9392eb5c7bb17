"""Chebyshev expansion of the heat kernel on a [0, 2] spectrum.

For an operator whose spectrum lives in ``[0, 2]`` the scalar function
``exp(-tau * lam)`` expands as

    h(lam) = c[0] / 2 + sum_{k >= 1} c[k] * T_k(lam - 1)

with ``c[k] = (-1)^k * 2 * exp(-tau) * I_k(tau)``. The coefficient vector
stores ``c[0]`` unhalved; the halving happens wherever the series is
evaluated. Basis vectors ``T_k(op - I) x`` depend on the operator and the
signal only, so one basis serves every diffusion scale. A scale needs
only its coefficient vector, so each basis vector is added to every
output soon after the recurrence yields it, and none is stored.

Recombination is two stages joined by two queues. The calling thread
runs the recurrence, and so every matvec, and puts each row on the first
queue; one helper thread per :func:`combine` call takes every row waiting
there at once, adds them into one output after another, each in
ascending order, and answers each row on the second queue with ``None``
or the exception that ended it. numpy releases the GIL inside those
array operations, so the two stages overlap; taking the rows in groups
keeps each output in cache across them. A row is drawn only once a slot
is free, that is while fewer than ``_IN_FLIGHT`` rows are unanswered,
and every answer already waiting is read first, so a helper error
re-raises at the next row and no matvec is spent after it. The helper
thread holds only that queue loop: :class:`chebheat.graphs._helper_thread`
starts it off the CPU the calling thread is on and joins it. With a
single CPU available, or on runs too small to repay a thread, the
additions run inline, in the same order, so the output bits never
depend on the thread count.

A small scale's coefficients underflow to exact zeros well before the
largest scale's order, and ``y + (+-0 * t)`` is ``y`` bit for bit unless
``y`` holds ``-0.0`` or ``t`` is not finite. Under IEEE round to nearest
a sum is ``-0.0`` only when both terms are, so an output whose first
term holds no ``-0.0`` never holds one; and the recurrence keeps a
non-finite entry non-finite in every later row. So each output's stop,
one past its last nonzero coefficient, is fixed before the first row:
it skips the rows from its stop up to the last, adds the last, which
carries any NaN a skipped row would have, and adds every row if its
first term holds ``-0.0``. The recurrence finishes each step in the
array ``apply`` returns, in place, with the bits of the plain
expression.
"""

from __future__ import annotations

import queue
from itertools import islice

import numpy as np

from .bessel import bessel_ie_scaled
from .graphs import SparseSymMatrix, _helper_cpus, _helper_thread

__all__ = ["cheb_coefficients", "cheb_terms", "cheb_partial_sums", "build_basis", "combine"]

# rows handed to the helper thread and not yet answered. On the 200x200
# lattice at 32 scales (2 vCPUs), lib-grid-multiscale job_s read a median
# of 0.311 s with 16 and 0.332 s with 8, over 7 runs each, at the same peak RSS
_IN_FLIGHT = 16
# The smallest runs that combine hands to a helper thread. Each row moves
# once to the helper's core, which a few outputs' additions do not repay,
# and numpy dispatches every addition under the GIL, which short rows do
# not repay. On 2 vCPUs (ER graphs of mean degree 10, K about 75) runs
# below either limit were up to 3 times slower with the helper, and runs
# above both were up to 29% faster.
_OVERLAP_MIN_SCALES = 8
_OVERLAP_MIN_LENGTH = 4096


def cheb_coefficients(tau_eff: float, order: int) -> np.ndarray:
    """Expansion coefficients of ``exp(-tau_eff * lam)`` up to ``order``.

    A read-only vector of ``order + 1`` entries; ``c[0]`` is stored
    unhalved, and entry ``k`` carries the sign ``(-1)^k`` for any
    positive scale.

    Parameters
    ----------
    tau_eff : float
        Effective (rescaled) diffusion scale, non-negative.
    order : int
        Truncation order.
    """
    order = int(order)
    if order < 0:
        raise ValueError("order must be non-negative")
    c = 2.0 * bessel_ie_scaled(order, tau_eff)
    c[1::2] *= -1.0
    c.flags.writeable = False
    return c


def cheb_terms(apply, x):
    """Yield ``T_k(A - I) x`` for ``k = 0, 1, 2, ...``, where ``apply(v) = A v``.

    This is the one three-term recurrence of the package. It is lazy:
    taking ``K + 1`` terms calls ``apply`` exactly ``K`` times. ``apply``
    must return a new array on every call, as ``SparseSymMatrix.matvec``,
    ``d * v`` and ``lam * v`` do: each step finishes ``2 (A t - t) -
    t_prev`` in that array, in place, with the same bits. So every term
    after ``x`` is a new array that is never written once yielded, and a
    consumer may still read it while later terms are computed.
    """
    yield x
    t_prev, t_cur = x, apply(x)
    t_cur -= x
    while True:
        yield t_cur
        w = apply(t_cur)  # 2 (A t - t) - t_prev, in place: the same bits
        w -= t_cur
        w *= 2.0
        w -= t_prev
        t_prev, t_cur = t_cur, w


def cheb_partial_sums(coefficients, terms):
    """Yield ``c[0]/2 t_0 + c[1] t_1 + ... + c[k] t_k`` for ``k = 0, 1, ...``.

    Terms are added in ascending ``k``, one per coefficient, so every
    path that sums a series gives the same bits for the same terms. The
    running sum is updated in place; a caller that keeps one must copy it.
    """
    c = iter(coefficients)
    terms = iter(terms)
    y = (0.5 * next(c)) * next(terms)
    yield y
    for ck, t in zip(c, terms):  # c first: no term is drawn past the last coefficient
        y += ck * t
        yield y


def build_basis(op: SparseSymMatrix, x, order: int):
    """The ``order + 1`` basis rows ``T_k(op - I) x``, drawn lazily.

    ``op`` must already be rescaled so its spectrum sits inside
    ``[0, 2]``. Drawing every row costs exactly ``order`` matrix-vector
    products; the order and the signal shape are checked at the call.
    """
    order = int(order)
    if order < 0:
        raise ValueError("order must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.n,):
        raise ValueError(f"signal of shape {x.shape} does not match operator size {op.n}")
    return islice(cheb_terms(op.matvec, x), order + 1)


def combine(basis, c) -> np.ndarray:
    """Contract coefficient vectors against basis rows in one pass.

    ``basis`` is any iterable of rows ``t_0, t_1, ...``, such as
    :func:`build_basis`; ``c`` is an ``(m, K + 1)`` array, one coefficient
    vector per output, giving an ``(m, n)`` array. Row ``k`` is drawn
    only once column ``k`` exists, on the calling thread;
    each output gets ``c[0]/2 t_0``, then ``+= c[k] * t_k`` in ascending
    ``k``, as :func:`cheb_partial_sums` sums them, except that an output
    skips the columns from its stop, one past its last nonzero
    coefficient, up to the last column, which it adds; an output whose
    first term holds ``-0.0`` adds every column. That gives the bits of
    adding every column when the rows come from a recurrence in which a
    non-finite entry stays non-finite in every later row, such as
    :func:`cheb_terms` or :func:`build_basis`, and on numpy's default IEEE
    arithmetic (round to nearest, no flush of subnormals to zero).

    With two CPUs or more, at least ``_OVERLAP_MIN_SCALES`` outputs and
    rows of at least ``_OVERLAP_MIN_LENGTH`` entries, one helper thread
    does those additions while later rows are drawn; the rows must not
    change after they are yielded. The helper takes every row waiting
    for it at once and adds them to one output before the next. A row
    is drawn only once fewer than ``_IN_FLIGHT`` rows wait on the
    helper, and an error of the helper re-raises here before the next
    row is drawn. Rows that run out before the coefficients raise
    ``ValueError``; any error is raised here once the helper has been
    joined.
    """
    c = np.asarray(c, dtype=np.float64)
    width = c.shape[1]
    coefficients = c.tolist()
    rows = iter(basis)

    def next_row(k):
        t = next(rows, None)
        if t is None:
            raise ValueError(f"basis of order {k - 1} cannot serve coefficients "
                             f"of order {width - 1}")
        return t

    t0 = next_row(0)
    out, scratch = np.multiply.outer(0.5 * c[:, 0], t0), np.empty_like(t0)
    # per output, the first column of its zero tail: one past its last nonzero
    # coefficient (a NaN counts as nonzero), or width when it has none or its
    # first term holds -0.0. The columns from the stop to the one before the
    # last are skipped; the last carries any NaN a skipped column would add.
    stops = [width if np.signbit(y[y == 0.0]).any() else stop
             for y, stop in zip(out, (width - np.argmax(c[:, ::-1] != 0.0, axis=1)).tolist())]

    def add(batch):
        """Add the rows ``(k, t_k)`` of ``batch``, in ascending ``k``, to each output in turn."""
        for y, ci, stop in zip(out, coefficients, stops):
            for k, t in batch:
                if not stop <= k < width - 1:
                    np.multiply(t, ci[k], out=scratch)
                    y += scratch

    overlap = (width > 1 and len(c) >= _OVERLAP_MIN_SCALES
               and t0.size >= _OVERLAP_MIN_LENGTH)
    cpus = _helper_cpus() if overlap else None
    if cpus is None:
        for k in range(1, width):
            add([(k, next_row(k))])
        return out

    rows_out, done = queue.SimpleQueue(), queue.SimpleQueue()

    def helper():
        while True:
            batch = [rows_out.get()]  # every row waiting, in the order put
            while not rows_out.empty():
                batch.append(rows_out.get())
            closed = batch[-1] is None  # None is the last item ever put
            if closed:
                batch.pop()
            if batch:
                try:
                    add(batch)
                    token = None
                except BaseException as exc:  # handed to the calling thread
                    token = exc
                answers = len(batch)
                del batch  # a row settles only once the helper lets it go
                for _ in range(answers):
                    done.put(token)
            if closed:
                return

    def settle():
        token = done.get()
        if token is not None:
            raise token

    unsettled = 0
    with _helper_thread(helper, cpus, "chebheat-combine"):
        try:
            for k in range(1, width):
                while unsettled == _IN_FLIGHT or (unsettled and not done.empty()):
                    settle()
                    unsettled -= 1
                rows_out.put((k, next_row(k)))
                unsettled += 1
        finally:
            rows_out.put(None)
    while not done.empty():
        settle()
    return out
