"""Chebyshev expansion of the heat kernel on a [0, 2] spectrum.

For an operator whose spectrum lives in ``[0, 2]`` the scalar function
``exp(-tau * lam)`` expands as

    h(lam) = c[0] / 2 + sum_{k >= 1} c[k] * T_k(lam - 1)

with ``c[k] = (-1)^k * 2 * exp(-tau) * I_k(tau)``. The coefficient vector
stores ``c[0]`` unhalved; the halving happens wherever the series is
evaluated. Basis vectors ``T_k(op - I) x`` depend on the operator and the
signal only, so one basis serves every diffusion scale. A scale needs
only its coefficient vector, so each basis vector is added to every
output whose vector reaches it soon after the recurrence yields it, and
none is stored.

Recombination is two stages joined by one queue. The calling thread
runs the recurrence, and so every matvec, and puts each row on the
queue; one helper thread per :func:`combine` call takes every row
waiting there at once and adds them into one output after another, each
in ascending order. numpy releases the GIL inside those array
operations, so the two stages overlap; taking the rows in groups keeps
each output in cache across them. A row is drawn only once it gets one
of ``_IN_FLIGHT`` slots, which the helper gives back once it has let the
row go, so few rows are alive at once. The helper holds only that loop:
:class:`chebheat.graphs._helper_thread` starts it off the CPU the
calling thread is on, joins it and raises its error, and the calling
thread draws no row once that error is known. With a single CPU
available, or on runs too small to repay a thread, the additions run
inline, in the same order, so the output bits never depend on the
thread count.

Each output has its own coefficient vector, of its own length, and
adds every column of it and no row past it. A series ends where its
coefficients are made: :func:`chebheat.diffusion._diffuse` cuts each
vector after its last nonzero coefficient, so no output adds a term it
knows to be zero. The recurrence finishes each step in the array
``apply`` returns, in place, with the bits of the plain expression.
"""

from __future__ import annotations

import queue
import threading
from itertools import islice

import numpy as np

from .bessel import bessel_ie_scaled
from .graphs import SparseSymMatrix, _helper_cpus, _helper_thread, _signal

__all__ = ["cheb_coefficients", "cheb_terms", "cheb_partial_sums", "build_basis", "combine"]

# slots for rows handed to the helper thread and not yet let go. On the 200x200
# lattice at 32 scales (2 vCPUs, K 88, each scale to its own order),
# lib-grid-multiscale job_s read medians of 0.101 s with 8 and 0.104 s with
# 16 over 10 alternating pairs (8 lower in 4), and 0.104 s with 32 and
# 0.100 s with 16 over 10 more (32 lower in 6), at the same peak RSS. With
# the matvec reading shifted planes, a cheaper recurrence beside the helper,
# it read 0.073 s with 8 and 0.071 s with 16 over 8 pairs (8 lower in 2),
# and 0.070 s with 32 and 0.073 s with 16 over 8 more (32 lower in 5,
# inside 16's interquartile range of 0.010 s) at 1.1 MiB more peak RSS
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
    products. The order and the signal are checked at the call, the
    signal as every signal is, against ``op.n`` (see
    :func:`chebheat.graphs._signal`): row 0 is its read-only copy, never
    the caller's array.
    """
    order = int(order)
    if order < 0:
        raise ValueError("order must be non-negative")
    return islice(cheb_terms(op.matvec, _signal(x, op.n)), order + 1)


def combine(basis, c) -> np.ndarray:
    """Contract coefficient vectors against basis rows in one pass.

    ``basis`` is any iterable of rows ``t_0, t_1, ...``, such as
    :func:`build_basis`; ``c`` holds one non-empty coefficient vector per
    output, each of its own length (an ``(m, K + 1)`` array is m of
    length ``K + 1``), giving an ``(m, n)`` array. Row ``k`` is drawn
    only once some output has column ``k``, on the calling thread, so
    the longest vector sets how many rows are drawn. Each output gets
    ``c[0]/2 t_0``, then ``+= c[k] * t_k`` in ascending ``k`` through its
    own last column, as :func:`cheb_partial_sums` sums them, so it has
    the bits of that output's series alone, zero coefficients included.

    With two CPUs or more, at least ``_OVERLAP_MIN_SCALES`` outputs and
    rows of at least ``_OVERLAP_MIN_LENGTH`` entries, one helper thread
    does those additions while later rows are drawn; the rows must not
    change after they are yielded. The helper takes every row waiting
    for it at once and adds them to one output before the next. A row
    is drawn only once fewer than ``_IN_FLIGHT`` rows wait on the
    helper, and none is drawn once the helper has failed. Rows that run
    out before the coefficients raise ``ValueError``; any error, the
    helper's too, is raised here once the helper has been joined.
    """
    c = [np.asarray(ci, dtype=np.float64).tolist() for ci in c]
    width = max(map(len, c))
    rows = iter(basis)

    def next_row(k):
        t = next(rows, None)
        if t is None:
            raise ValueError(f"basis of order {k - 1} cannot serve coefficients "
                             f"of order {width - 1}")
        return t

    t0 = next_row(0)
    out = np.multiply.outer([0.5 * ci[0] for ci in c], t0)
    scratch = np.empty_like(t0)

    def add(batch):
        """Add the rows ``(k, t_k)`` of ``batch``, in ascending ``k``, to each output in turn."""
        for y, ci in zip(out, c):
            for k, t in batch:
                if k < len(ci):
                    np.multiply(t, ci[k], out=scratch)
                    y += scratch

    overlap = (width > 1 and len(c) >= _OVERLAP_MIN_SCALES
               and t0.size >= _OVERLAP_MIN_LENGTH)
    cpus = _helper_cpus() if overlap else None
    if cpus is None:
        for k in range(1, width):
            add([(k, next_row(k))])
        return out

    rows_out, slots = queue.SimpleQueue(), threading.Semaphore(_IN_FLIGHT)

    def helper():
        try:
            while True:
                batch = [rows_out.get()]  # every row waiting, in the order put
                while not rows_out.empty():
                    batch.append(rows_out.get())
                if batch[-1] is None:  # None is the last item ever put
                    add(batch[:-1])
                    return
                add(batch)
                taken = len(batch)
                del batch  # a slot frees only once the helper lets its row go
                slots.release(taken)
        finally:
            slots.release(width)  # more than the caller can still take: it never waits again

    with _helper_thread(helper, cpus, "chebheat-combine") as failed:
        try:
            for k in range(1, width):
                slots.acquire()
                if failed:
                    break
                rows_out.put((k, next_row(k)))
        finally:
            rows_out.put(None)
    return out
