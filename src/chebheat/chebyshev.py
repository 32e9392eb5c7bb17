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
queue; one helper thread per :func:`combine` call adds each row into
every output, in ascending order, and answers each row on the second
queue with ``None`` or the exception that ended it. numpy releases the
GIL inside those array operations, so the two stages overlap. A row is
drawn only once a slot is free, that is while fewer than ``_IN_FLIGHT``
rows are unanswered, and every answer already waiting is read first, so
a helper error re-raises at the next row and no matvec is spent after
it. The helper starts off the CPU the calling thread is on. With a
single CPU available, or on runs too small to repay a thread, the
additions run inline, in the same order, so the output bits never depend
on the thread count.
"""

from __future__ import annotations

import os
import queue
import threading
from itertools import islice

import numpy as np

from .bessel import bessel_ie_scaled
from .graphs import SparseSymMatrix, _helper_cpus

__all__ = ["cheb_coefficients", "cheb_terms", "cheb_partial_sums", "build_basis", "combine"]

# rows handed to the helper thread and not yet answered
_IN_FLIGHT = 4
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
    taking ``K + 1`` terms calls ``apply`` exactly ``K`` times. Every term
    after ``x`` is a new array that is never written once yielded, so a
    consumer may still read it while later terms are computed.
    """
    yield x
    t_prev, t_cur = x, apply(x) - x
    while True:
        yield t_cur
        t_prev, t_cur = t_cur, 2.0 * (apply(t_cur) - t_cur) - t_prev


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
    ``k``, as :func:`cheb_partial_sums` sums them. With two CPUs or more,
    at least ``_OVERLAP_MIN_SCALES`` outputs and rows of at least
    ``_OVERLAP_MIN_LENGTH`` entries, one helper thread does those
    additions while later rows are drawn; the rows must not change after
    they are yielded. A row is drawn only once fewer than ``_IN_FLIGHT``
    rows wait on the helper, and an error of the helper re-raises here
    before the next row is drawn. Rows that run out before the
    coefficients raise ``ValueError``; any error is raised here once the
    helper has been joined.
    """
    c = np.asarray(c, dtype=np.float64)
    columns = c.T.tolist()
    rows = iter(basis)

    def next_row(k):
        t = next(rows, None)
        if t is None:
            raise ValueError(f"basis of order {k - 1} cannot serve coefficients "
                             f"of order {c.shape[1] - 1}")
        return t

    t0 = next_row(0)
    out, scratch = np.multiply.outer(0.5 * c[:, 0], t0), np.empty_like(t0)

    def add(t, column):
        for y, ck in zip(out, column):
            np.multiply(t, ck, out=scratch)
            y += scratch

    overlap = (len(columns) > 1 and len(c) >= _OVERLAP_MIN_SCALES
               and t0.size >= _OVERLAP_MIN_LENGTH)
    cpus = _helper_cpus() if overlap else None
    if cpus is None:
        for k in range(1, len(columns)):
            add(next_row(k), columns[k])
        return out

    rows_out, done = queue.SimpleQueue(), queue.SimpleQueue()

    def helper():
        if cpus:
            try:
                os.sched_setaffinity(0, cpus)
            except OSError:  # placement is only a hint
                pass
        for item in iter(rows_out.get, None):
            try:
                add(*item)
                token = None
            except BaseException as exc:  # handed to the calling thread
                token = exc
            del item  # a row settles only once the helper lets it go
            done.put(token)

    def settle():
        token = done.get()
        if token is not None:
            raise token

    # joined below on every path; daemon only so that a stuck helper cannot stall exit
    thread = threading.Thread(target=helper, name="chebheat-combine", daemon=True)
    thread.start()
    unsettled = 0
    try:
        for k in range(1, len(columns)):
            while unsettled == _IN_FLIGHT or (unsettled and not done.empty()):
                settle()
                unsettled -= 1
            rows_out.put((next_row(k), columns[k]))
            unsettled += 1
    finally:
        rows_out.put(None)
        thread.join()
    while not done.empty():
        settle()
    return out
