"""Sparse symmetric graph operators, signals, and the I/O around them.

The operator type is a plain CSR matrix restricted to the symmetric case:
both triangles are stored explicitly, column indices are strictly
increasing within each row, and no explicit zeros are kept. Construction
validates all of that once, after which instances are immutable and safe
to share across threads. :func:`build_laplacian` also gives each
Laplacian its kernel vector, which the specific certificates read. The
matvec sums each row in the order ``np.add.reduceat`` does. An operator
whose rows hold at most ``_PLANE_MAX_WIDTH`` entries (a lattice, a path,
a 3-D grid) keeps its entries in that many padded planes instead of the
CSR arrays, and sums the planes one pass each in that order; a wider
one calls ``reduceat``. Either way the bits are the same.

Graph files come in two flavours: a whitespace edge list (``i j [w]``,
0-based, ``#`` comments) and Matrix Market coordinate format (symmetric,
real). A signal is a plain array: every function that takes one checks
and copies it with :func:`_signal` into a read-only, finite, non-empty
1-d float64 array. Signals come from one-value-per-line text files or
generator specs such as ``dirac:3``, ``normal:42``, ``const:0.5``. All
three file readers share one record loop, :func:`_body`: it skips the
head, tries one numpy read of every record at the first one, and
otherwise parses the file line by line, so each ``ParseError`` names its
line.

Random graphs come from :func:`erdos_renyi`, which on a large graph
draws its one random stream in two halves at once, the second on one
helper thread. :func:`_helper_cpus` is the package's one rule for
whether, and off which CPU, a helper thread runs, and
:class:`_helper_thread` its one runner: it starts, places and joins every
helper thread, this one and :func:`chebheat.chebyshev.combine`'s, and
hands its error to the calling thread, so the threads hold only their
work.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import threading
import warnings

import numpy as np

from .errors import ParseError

__all__ = [
    "SparseSymMatrix",
    "build_laplacian",
    "erdos_renyi",
    "load_graph",
    "load_signal",
    "save_edge_list",
]


# An operator whose rows all hold at most this many entries multiplies from
# padded planes. numpy's reduceat adds a row of at most 8 entries as
# a_0 + (((a_1 + a_2) + a_3) + ...), an order the test suite pins, and
# longer rows in another. On 2 vCPUs (medians of 40 x 20 calls) a 200x200
# lattice matvec, rows of 3 to 5, took 0.85 ms padded against 1.5 ms with
# reduceat; a normalized ER n = 20000 one, rows of up to 44, took 5.3 ms
# padded against 2.7 ms.
_PLANE_MAX_WIDTH = 8


class SparseSymMatrix:
    """Symmetric sparse matrix in CSR form.

    Parameters
    ----------
    n : int
        Dimension.
    row_ptr : array_like of int, shape (n + 1,)
        Row start offsets into ``col_idx`` / ``values``.
    col_idx : array_like of int
        Column indices, strictly increasing within each row.
    values : array_like of float
        Stored entries; explicit zeros are rejected.

    Attributes
    ----------
    n, row_ptr, col_idx, values
        The arguments, read-only. An operator whose rows hold at most
        ``_PLANE_MAX_WIDTH`` entries keeps ``col_idx`` and ``values`` in
        matvec's padded planes only, the column planes shared with its
        :meth:`scaled` copies, and gathers each array, with the same
        bits, on first use.
    spectral_bound : float or None
        A known upper bound on the largest eigenvalue, read-only. Only
        :func:`build_laplacian` sets it (2, normalized); :meth:`scaled`
        carries it. Diffusion runs estimate the radius of any other matrix.
    kernel_vector : ndarray or None
        A known nonzero vector ``k`` with ``A k = 0``, read-only. Only
        :func:`build_laplacian` sets it: ``ones(n)`` for a combinatorial
        Laplacian, ``sqrt(deg)`` for a normalized one; :meth:`scaled`
        carries it. ``None`` for every matrix built directly.

    Notes
    -----
    Symmetry is checked at construction by a transpose compare, so every
    stored ``(i, j)`` entry must have a mirror ``(j, i)`` with a bitwise
    equal value. The backing arrays are marked read-only afterwards.

    The certified bounds need a positive semidefinite operator, and the
    specific ones also a kernel vector. An operator with a kernel vector
    comes from :func:`build_laplacian` (or :meth:`scaled`), so it is
    positive semidefinite; a diffusion run checks any other matrix by
    Gershgorin and refuses one it cannot show to be semidefinite, and
    certifies it with the generic bounds only (see
    :func:`chebheat.diffusion.make_plan`).

    Facts derived from the operator alone (the power-iteration estimate
    of its spectral radius, its dense eigendecomposition) are kept in a
    private per-object dict that starts empty, also on a :meth:`scaled`
    copy, and lives and dies with the operator. Only the function that
    computes a fact reads and fills its entry. Two threads that miss
    together both compute it, and both get the same bits.
    """

    __slots__ = ("_n", "_row_ptr", "_col_idx", "_values", "_spectral_bound", "_kernel",
                 "_facts", "_row_starts", "_nonempty", "_cols", "_vals")

    def __init__(self, n, row_ptr, col_idx, values):
        n = int(n)
        row_ptr = np.array(row_ptr, dtype=np.int64)
        col_idx = np.array(col_idx, dtype=np.int64)
        values = np.array(values, dtype=np.float64)
        if n < 1:
            raise ValueError("matrix dimension must be >= 1")
        if row_ptr.shape != (n + 1,):
            raise ValueError("row_ptr must have length n + 1")
        if row_ptr[0] != 0 or row_ptr[-1] != values.size:
            raise ValueError("row_ptr must start at 0 and end at nnz")
        counts = np.diff(row_ptr)
        if np.any(counts < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if col_idx.shape != values.shape or col_idx.ndim != 1:
            raise ValueError("col_idx and values must be 1-d and equal length")
        rows = np.repeat(np.arange(n, dtype=np.int64), counts)
        if values.size:
            if col_idx.min() < 0 or col_idx.max() >= n:
                raise ValueError("column index out of range")
            # with columns in range, a new row adds at least n to the entry key
            if np.any(np.diff(rows * n + col_idx) <= 0):
                raise ValueError("column indices must be strictly increasing within a row")
            if np.any(values == 0.0):
                raise ValueError("explicit zero entries are not allowed")
        self._n = n
        self._row_ptr = row_ptr
        self._col_idx = col_idx
        self._values = values
        self._spectral_bound = None
        self._kernel = None
        self._facts = {}
        self._check_symmetry(rows)
        # matvec's padded layout, for rows of at most _PLANE_MAX_WIDTH entries:
        # entry j of row i sits in plane j. A padding slot holds 1.0 and reads
        # x[n] = -0.0, the additive identity, except the first slot of an empty
        # row, which reads x[n + 1] = +0.0, so that the row sums to +0.0. Such
        # an operator keeps its entries in the planes only (see ``col_idx``).
        # Otherwise the reduceat layout: the start of every non-empty row, and
        # which rows those are (None when no row is empty).
        self._cols = self._vals = self._row_starts = self._nonempty = None
        width = int(counts.max())
        if 0 < width <= _PLANE_MAX_WIDTH:
            slot = np.arange(values.size)
            slot -= row_ptr[rows]
            self._cols = np.full((width, n), n, dtype=np.int64)
            self._cols[slot, rows] = col_idx
            self._cols[0, counts == 0] = n + 1
            self._vals = np.ones((width, n))
            self._vals[slot, rows] = values
            self._col_idx = self._values = None
        else:
            nonempty = counts > 0
            self._nonempty = None if nonempty.all() else nonempty
            self._row_starts = row_ptr[:-1] if self._nonempty is None else row_ptr[:-1][nonempty]
        for a in (row_ptr, col_idx, values, self._row_starts, self._nonempty, self._cols,
                  self._vals):
            if a is not None:
                a.flags.writeable = False

    def _from_planes(self, planes):
        """The real entries of ``planes`` in CSR order, read-only."""
        entries = planes.T[self._cols.T < self.n]  # row by row
        entries.flags.writeable = False
        return entries

    def _check_symmetry(self, rows):
        order = _csr_order(self.col_idx, rows, self.n)  # the transpose's (row, col) order
        if not (
            np.array_equal(self.col_idx[order], rows)
            and np.array_equal(rows[order], self.col_idx)
            and np.array_equal(self.values[order], self.values)
        ):
            raise ValueError("matrix is not symmetric")

    @property
    def n(self) -> int:
        return self._n

    @property
    def row_ptr(self) -> np.ndarray:
        return self._row_ptr

    @property
    def col_idx(self) -> np.ndarray:
        col_idx = self._col_idx
        if col_idx is None:  # held in the padded planes, gathered on first use
            col_idx = self._col_idx = self._from_planes(self._cols)
        return col_idx

    @property
    def values(self) -> np.ndarray:
        values = self._values
        if values is None:  # as col_idx
            values = self._values = self._from_planes(self._vals)
        return values

    @property
    def spectral_bound(self) -> float | None:
        return self._spectral_bound

    @property
    def kernel_vector(self) -> np.ndarray | None:
        return self._kernel

    @property
    def nnz(self) -> int:
        return int(self.row_ptr[-1])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Multiply by a dense vector; the result is a new array.

        Each row ``a_0 .. a_{L-1}`` of products is summed in the order
        ``np.add.reduceat`` gives it, so repeated calls with identical
        inputs are bit-identical, whichever layout serves the operator.
        For rows of at most ``_PLANE_MAX_WIDTH`` entries that order is
        ``a_0 + (((a_1 + a_2) + a_3) + ...)``, which the padded planes
        follow in one pass per plane; wider operators call ``reduceat``.
        No buffer outlives a call, so threads may share the operator.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {x.shape}")
        if self.nnz == 0:
            return np.zeros(self.n)
        if self._cols is not None:
            padded = np.empty(self.n + 2)
            padded[:-2] = x
            padded[-2:] = (-0.0, 0.0)
            p = np.take(padded, self._cols)
            np.multiply(self._vals, p, out=p)
            for j in range(2, len(p)):
                p[1] += p[j]
            return p[0] + p[1] if len(p) > 1 else p[0]
        sums = np.add.reduceat(self.values * x[self.col_idx], self._row_starts)
        if self._nonempty is None:
            return sums
        out = np.zeros(self.n)
        out[self._nonempty] = sums
        return out

    def scaled(self, alpha: float) -> "SparseSymMatrix":
        """Return a copy with every stored value multiplied by ``alpha``.

        ``alpha`` must be positive; structure and kernel vector are
        shared with the parent, and a spectral bound is scaled with the
        values.
        """
        if not alpha > 0.0:
            raise ValueError("scale factor must be positive")
        if alpha == 1.0:
            return self
        # same structure, new stored values: the invariants hold by construction,
        # and alpha > 0 keeps the kernel and positive semidefiniteness
        m = object.__new__(type(self))
        for name in ("_n", "_row_ptr", "_col_idx", "_row_starts", "_nonempty", "_cols",
                     "_kernel"):
            setattr(m, name, getattr(self, name))
        if m._cols is None:
            m._values, m._vals = self.values * alpha, None
            m._values.flags.writeable = False
        else:  # the same products, kept in the planes only
            m._values, m._vals = None, np.ones(m._cols.shape)
            np.multiply(self._vals, alpha, out=m._vals, where=m._cols < m._n)
            m._vals.flags.writeable = False
        m._spectral_bound = None if self.spectral_bound is None else self.spectral_bound * alpha
        m._facts = {}
        return m

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), np.diff(self.row_ptr))
        a[rows, self.col_idx] = self.values
        return a

    def __repr__(self):
        return f"SparseSymMatrix(n={self.n}, nnz={self.nnz})"


def _signal(values) -> np.ndarray:
    """A signal: a read-only, finite, non-empty 1-d float64 copy of ``values``."""
    v = np.array(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("signal must be a non-empty 1-d array")
    if not np.all(np.isfinite(v)):
        raise ValueError("signal contains non-finite values")
    v.flags.writeable = False
    return v


def _edge_array(edges) -> np.ndarray:
    """Edges as one (m, 3) float array of ``i, j, w``; an ``(i, j)`` edge gets w = 1."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    if len(edges) == 0:
        return np.zeros((0, 3))
    try:
        a = np.array(edges, dtype=np.float64)
    except ValueError:  # ragged: (i, j) and (i, j, w) edges mixed, or other lengths
        a = None
    if a is None or a.ndim != 2 or a.shape[1] not in (2, 3):
        lengths = np.array([len(edge) for edge in edges])
        wrong = np.flatnonzero((lengths != 2) & (lengths != 3))
        if wrong.size:
            raise ValueError(f"edge #{int(wrong[0])}: expected (i, j) or (i, j, w)")
        a = np.array([(*edge, 1.0)[:3] for edge in edges], dtype=np.float64)
    if a.shape[1] == 2:
        a = np.column_stack([a, np.ones(a.shape[0])])
    return a


def _accumulate_edges(edges, n):
    """Canonicalize, validate, and sum duplicate undirected edges.

    Endpoints are truncated to integers as ``int`` would. Errors name the
    first offending edge; duplicates are summed in input order.
    """
    a = _edge_array(edges)
    i, j, w = a[:, 0], a[:, 1], a[:, 2]
    # 0 <= int(x) < n exactly when -1 < x < n; NaN fails both tests
    out_of_range = ~((i > -1.0) & (i < n) & (j > -1.0) & (j < n))
    ii = np.where(out_of_range, 0.0, i).astype(np.int64)
    jj = np.where(out_of_range, 0.0, j).astype(np.int64)
    self_loop = ~out_of_range & (ii == jj)
    bad_weight = ~((w > 0.0) & (w < np.inf))
    bad = np.flatnonzero(out_of_range | self_loop | bad_weight)
    if bad.size:
        idx = int(bad[0])
        if out_of_range[idx]:
            ends = ", ".join(str(int(v)) if math.isfinite(v) else str(v) for v in a[idx, :2])
            raise ValueError(f"edge #{idx}: endpoint out of range for n={n}: ({ends})")
        if self_loop[idx]:
            raise ValueError(f"edge #{idx}: self-loop at node {int(ii[idx])} is not allowed")
        raise ValueError(f"edge #{idx}: weight must be positive and finite, got {float(w[idx])}")
    lo = np.minimum(ii, jj)
    hi = np.maximum(ii, jj)
    key = lo * n + hi
    uniq, inverse = np.unique(key, return_inverse=True)
    wsum = np.bincount(inverse, weights=w, minlength=uniq.size)
    return uniq // n, uniq % n, wsum


def _csr_order(rows, cols, n):
    """Permutation sorting entries by (row, col); entries must be distinct."""
    return np.argsort(rows * n + cols)


def build_laplacian(edges, n: int, kind: str = "combinatorial") -> SparseSymMatrix:
    """Assemble a graph Laplacian from an undirected edge list.

    Parameters
    ----------
    edges : iterable of (i, j) or (i, j, weight), or an (m, 2) or (m, 3) array
        Undirected edges, 0-based endpoints, positive weights (default 1).
        Duplicate edges, in either orientation, are summed into one weight.
    n : int
        Number of nodes.
    kind : {"combinatorial", "normalized"}
        ``combinatorial`` is ``D - A``; ``normalized`` is
        ``I - D^{-1/2} A D^{-1/2}`` and requires every node to have at
        least one incident edge.

    Returns
    -------
    SparseSymMatrix
        Positive semi-definite operator with its ``kernel_vector``:
        ``ones(n)`` (isolated nodes included) for ``combinatorial``,
        ``sqrt(deg)`` for ``normalized`` (see :class:`SparseSymMatrix`).
        Rows of isolated nodes are empty under ``combinatorial`` (no
        explicit zeros are stored). The normalized operator carries
        ``spectral_bound = 2``: its spectrum lies in [0, 2].
    """
    if kind not in ("combinatorial", "normalized"):
        raise ValueError(f"unknown laplacian kind: {kind!r}")
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi, w = _accumulate_edges(edges, n)
    # one bincount over lo then hi adds in the order add.at(lo), add.at(hi) would
    deg = np.bincount(np.concatenate([lo, hi]), weights=np.concatenate([w, w]), minlength=n)
    if kind == "normalized":
        isolated = np.nonzero(deg == 0.0)[0]
        if isolated.size:
            raise ValueError(
                f"normalized laplacian undefined: node {int(isolated[0])} is isolated"
            )
        off = -w / np.sqrt(deg[lo] * deg[hi])
        diag_vals = np.ones(n)
        diag_idx = np.arange(n, dtype=np.int64)
    else:
        off = -w
        diag_idx = np.nonzero(deg > 0.0)[0].astype(np.int64)
        diag_vals = deg[diag_idx]
    rows = np.concatenate([lo, hi, diag_idx])
    cols = np.concatenate([hi, lo, diag_idx])
    vals = np.concatenate([off, off, diag_vals])
    order = _csr_order(rows, cols, n)
    rows = rows[order]
    cols = cols[order]
    vals = vals[order]
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_ptr[1:])
    op = SparseSymMatrix(n, row_ptr, cols, vals)
    op._spectral_bound = 2.0 if kind == "normalized" else None
    op._kernel = np.sqrt(deg) if kind == "normalized" else np.ones(n)
    op._kernel.flags.writeable = False
    return op


_ER_BLOCK = 2 ** 16  # uniforms drawn per block: 512 KiB, cache-sized
# pairs from which a helper thread draws half of them: on 2 vCPUs the split
# broke even at about 2**17.5 pairs and took 26% off at 2**19
_ER_SPLIT_MIN = 2 ** 19


def _helper_cpus():
    """Where a helper thread should run, or None to do its work on the calling thread.

    None when the calling thread may use fewer than two CPUs. Otherwise
    the CPUs it may use except the one it runs on now: a helper started
    on the caller's CPU can share it for seconds before the scheduler
    moves either thread (measured on a 2-vCPU Linux guest, where the
    first jobs of a process then took as long as serial additions). An
    empty set leaves the placement to the system. The one rule for every
    helper thread of the package: :func:`erdos_renyi`'s and
    :func:`chebheat.chebyshev.combine`'s.
    """
    if not hasattr(os, "sched_getaffinity"):  # no affinity interface on this platform
        return set() if (os.cpu_count() or 1) >= 2 else None
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        return None
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            # field 39, the CPU this thread last ran on; the name in field 2 may hold ")"
            here = int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return set()
    return allowed - {here}


class _helper_thread:
    """Run ``work()`` on one helper thread while the ``with`` body runs.

    The thread, named ``name``, first asks to run on ``cpus`` (a set from
    :func:`_helper_cpus`; an empty one leaves the placement to the
    system, and an ``OSError`` is ignored, since placement is only a
    hint). It is joined when the body ends, on every path, so the body
    must make ``work`` return. After the join, an error of ``work`` is
    raised here, unless the body raised first. The one place where the
    package starts, places and joins a thread.
    """

    def __init__(self, work, cpus, name):
        self._error = []

        def run():
            if cpus:
                try:
                    os.sched_setaffinity(0, cpus)
                except OSError:  # placement is only a hint
                    pass
            try:
                work()
            except BaseException as exc:  # handed to the calling thread
                self._error.append(exc)

        # daemon only so that a stuck helper cannot stall exit: __exit__ joins it
        self._thread = threading.Thread(target=run, name=name, daemon=True)

    def __enter__(self):
        self._thread.start()

    def __exit__(self, kind, exc, tb):
        self._thread.join()
        if kind is None and self._error:
            raise self._error[0]


def _er_hits(seed, p: float, start: int, stop: int) -> np.ndarray:
    """The k in ``[start, stop)`` where draw k of ``default_rng(seed)`` is below ``p``.

    A fresh generator jumps ahead by ``start`` draws, then draws the
    range in blocks of ``_ER_BLOCK`` uniforms. Each uniform takes one
    64-bit output, so any cut of a range gives the hits of one draw.
    """
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(start)
    block = np.empty(min(_ER_BLOCK, stop - start))
    hits = [np.zeros(0, dtype=np.int64)]
    for lo in range(start, stop, _ER_BLOCK):
        u = block[:min(_ER_BLOCK, stop - lo)]
        rng.random(out=u)
        hits.append(np.flatnonzero(u < p) + lo)
    return np.concatenate(hits)


def _er_hits_split(seed, p: float, total: int, cpus) -> np.ndarray:
    """:func:`_er_hits` over ``[0, total)``, its second half on a helper thread off ``cpus``."""
    half = total // 2
    second = []
    with _helper_thread(lambda: second.append(_er_hits(seed, p, half, total)), cpus,
                        "chebheat-erdos-renyi"):
        first = _er_hits(seed, p, 0, half)
    return np.concatenate([first, second[0]])


def erdos_renyi(n: int, p: float, seed: int) -> np.ndarray:
    """Sample a G(n, p) graph as an (m, 3) float array of edges ``i, j, 1.0``.

    Every unordered pair is included independently with probability
    ``p``; the draw is deterministic for a given ``seed``, a non-negative
    int (``None`` draws fresh entropy; a ``Generator`` raises
    ``TypeError``). Pairs ``i < j`` are numbered row by row, ``(0, 1),
    (0, 2), ..., (0, n-1), (1, 2), ...``, and pair k is an edge when draw
    k of ``default_rng(seed).random`` is below ``p``; edges come back in
    that order. Disconnected samples are returned as-is, and ``n = 1``
    gives shape ``(0, 3)``.

    From ``_ER_SPLIT_MIN`` pairs on, when the calling thread may use two
    CPUs, one helper thread draws the second half of the pairs, jumping
    the generator ahead to it, while the calling thread draws the first.
    The edges are the same on any CPU count.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie strictly between 0 and 1")
    # each half makes its generator from this one seed: None draws its entropy
    # once, and a Generator, which both halves would share, is refused
    seed = np.random.SeedSequence(seed)
    total = n * (n - 1) // 2
    cpus = _helper_cpus() if total >= _ER_SPLIT_MIN else None
    k = _er_hits(seed, p, 0, total) if cpus is None else _er_hits_split(seed, p, total, cpus)
    # row i holds the n - 1 - i pairs from flat index i (n - 1) - i (i - 1) / 2 on
    rows = np.arange(n - 1, dtype=np.int64)
    row_starts = rows * (n - 1) - rows * (rows - 1) // 2
    i = np.searchsorted(row_starts, k, side="right") - 1
    return np.column_stack([i, k - row_starts[i] + i + 1, np.ones(k.size)])


_N_TOKEN = re.compile(r"(?:^|\s)n=(\d+)(?:\s|$)")

# one record per line: a graph file's 2 or 3 fields, a signal file's 1
_EDGE_DTYPES = {2: np.dtype([("i", np.int64), ("j", np.int64)]),
                3: np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])}
_SIGNAL_DTYPE = np.dtype([("x", np.float64)])


def _bulk_rows(path, head, dtype):
    """The records after the first ``head`` lines of ``path``, read in one numpy call.

    numpy splits on the whitespace ``str.split`` splits on and reads each
    token to the value ``int`` or ``float`` gives, or rejects it. None when
    any line there is not a ``dtype`` record (a comment, another field
    count, a token numpy rejects): the caller then reads the file line by
    line, so each ``ParseError`` names its line. Older numpy reads an int
    field such as ``1.5`` through float with only a DeprecationWarning,
    which counts as a rejection here.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(path, dtype=dtype, comments=None, skiprows=head,
                              encoding="utf-8", ndmin=1)
        except (ValueError, DeprecationWarning):
            return None


def _bulk_edges(path, head, fields, base, dims=2 ** 53):
    """The records after the head as one (m, 3) float array of ``i, j, w``, or None.

    Indices are read ``base``-based and returned 0-based. None also when an
    edge breaks a rule (a self-loop, an index below 0 or at least ``dims``,
    by default 2**53, from where a float may round an index): the
    line-wise parser then reads or reports it.
    """
    rows = _bulk_rows(path, head, _EDGE_DTYPES[fields]) if fields in _EDGE_DTYPES else None
    if rows is None:
        return None
    i, j = rows["i"] - base, rows["j"] - base
    if np.any(i == j) or np.any(np.minimum(i, j) < 0) or np.any(np.maximum(i, j) >= dims):
        return None
    return np.column_stack([i, j, rows["w"] if fields == 3 else np.ones(i.size)])


def _body(fh, path, line_no, comment, bulk, parse, *args, on_comment=None):
    """The records of ``fh`` after its first ``line_no`` lines: every reader's one loop.

    Blank lines are skipped, and so are lines that start with ``comment``,
    each handed to ``on_comment`` when given. At the first record, with
    ``head`` lines before it, returns ``bulk(head, line)`` unless that is
    None; otherwise returns the list of ``parse(path, line_no, line, *args)``
    of every record in file order, so each ``ParseError`` names its line.
    """
    records = []
    for line_no, raw in enumerate(fh, start=line_no + 1):
        line = raw.strip()
        if line.startswith(comment):
            if on_comment is not None:
                on_comment(line)
        elif line:
            if not records:  # the first record ends the head
                rows = bulk(line_no - 1, line)
                if rows is not None:
                    return rows
            records.append(parse(path, line_no, line, *args))
    return records


def _edge_fields(path, line_no, line):
    """Parse one stripped, non-comment edge-list line; the reference for every error."""
    parts = line.split()
    if len(parts) not in (2, 3):
        raise ParseError(path, line_no, f"expected 'i j [w]', got {line!r}")
    try:
        i = int(parts[0])
        j = int(parts[1])
        w = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError:
        raise ParseError(path, line_no, f"could not parse edge fields in {line!r}") from None
    if i < 0 or j < 0:
        raise ParseError(path, line_no, "node indices must be non-negative")
    if i == j:
        raise ParseError(path, line_no, f"self-loop at node {i} is not allowed")
    return i, j, w


def _parse_edge_list(path):
    comments = []
    with open(path, "r", encoding="utf-8") as fh:
        edges = _body(fh, path, 0, "#",
                      lambda head, line: _bulk_edges(path, head, len(line.split()), 0),
                      _edge_fields, on_comment=comments.append)
    declared = (_N_TOKEN.search(line[1:]) for line in comments)
    declared_n = next((int(m.group(1)) for m in declared if m), None)
    if isinstance(edges, list):  # exact ints, also past 2**53 where a float rounds
        max_idx = max((max(i, j) for i, j, _ in edges), default=-1)
    else:
        max_idx = int(edges[:, :2].max())
    n = declared_n if declared_n is not None else max_idx + 1
    if n < 1:
        raise ParseError(path, 1, "file declares no nodes")
    if max_idx >= n:
        raise ParseError(path, 1, f"node index {max_idx} exceeds declared n={n}")
    return np.asarray(edges, dtype=np.float64).reshape(-1, 3), n


def _mm_entry(path, line_no, line, pattern, dims):
    """Parse one stripped Matrix Market entry line to 0-based ``(i, j, w)``."""
    parts = line.split()
    expected = 2 if pattern else 3
    if len(parts) != expected:
        raise ParseError(path, line_no, f"expected {expected} fields, got {len(parts)}")
    try:
        i = int(parts[0]) - 1
        j = int(parts[1]) - 1
        w = 1.0 if pattern else float(parts[2])
    except ValueError:
        raise ParseError(path, line_no, f"could not parse entry fields in {line!r}") from None
    if i == j:
        raise ParseError(
            path, line_no, "diagonal entries are not edges; supply an adjacency pattern"
        )
    if not (0 <= i < dims and 0 <= j < dims):
        raise ParseError(path, line_no, "entry index out of declared range")
    return i, j, w


def _parse_matrix_market(path):
    with open(path, "r", encoding="utf-8") as fh:
        fields = fh.readline().strip().lower().split()
        if (
            len(fields) < 5
            or fields[0] != "%%matrixmarket"
            or fields[1] != "matrix"
            or fields[2] != "coordinate"
        ):
            raise ParseError(path, 1, "expected '%%MatrixMarket matrix coordinate ...' header")
        if fields[3] not in ("real", "integer", "pattern"):
            raise ParseError(path, 1, f"unsupported field type {fields[3]!r}")
        if fields[4] != "symmetric":
            raise ParseError(path, 1, "only symmetric matrices describe graphs here")
        pattern = fields[3] == "pattern"
        lines = enumerate(map(str.strip, fh), start=2)
        size_no, size = next(((k, line) for k, line in lines
                              if line and not line.startswith("%")), (None, None))
        if size is None:
            raise ParseError(path, 1, "missing size line")
        parts = size.split()
        if len(parts) != 3:
            raise ParseError(path, size_no, "expected 'rows cols nnz' size line")
        try:
            dims, cols, nnz = (int(p) for p in parts)
        except ValueError:
            raise ParseError(path, size_no, f"could not parse size line {size!r}") from None
        if dims != cols:
            raise ParseError(path, size_no, f"matrix must be square, got {dims}x{cols}")
        edges = _body(fh, path, size_no, "%",
                      lambda head, line: _bulk_edges(path, head, 2 if pattern else 3, 1, dims),
                      _mm_entry, pattern, dims)
    if len(edges) != nnz:
        raise ParseError(path, size_no,
                         f"size line declares {nnz} entries, file holds {len(edges)}")
    return np.asarray(edges, dtype=np.float64).reshape(-1, 3), dims


def load_graph(path):
    """Load an undirected graph file.

    Parameters
    ----------
    path : str or Path
        Edge-list or Matrix Market file. A file whose first non-blank line
        starts with ``%%MatrixMarket`` is read as Matrix Market, any other
        as an edge list.

    Returns
    -------
    (edges, n)
        An (m, 3) float array of edges ``i, j, w`` in file order, and the
        node count. For edge lists, ``n`` is ``1 + max index`` unless a
        ``# ... n=<int>`` comment declares it.

    Notes
    -----
    Both formats go through the one record loop of every reader. The
    head of the file is its leading blank and comment lines, and for
    Matrix Market also the header and size lines, read before the loop.
    At the first record, when every line after the head is a plain
    record with that record's field count and no rule is broken, numpy
    reads them all in one call. Any other file (a comment after the head,
    a mix of 2- and 3-field lines, a self-loop, an index out of range or
    past 2**53, a token such as ``1_0`` that numpy rejects) is read line
    by line, and each ``ParseError`` carries its line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = next((line for line in map(str.strip, fh) if line), "")
    if first.lower().startswith("%%matrixmarket"):
        return _parse_matrix_market(path)
    return _parse_edge_list(path)


_BLOCK_ROWS = 4096  # rows formatted per write; keeps the value lists small


def write_rows(fh, row_format: str, columns) -> None:
    """Write row r as ``row_format % tuple(c[r] for c in columns)``, in blocks.

    ``columns`` are equal-length 1-d arrays. ``%d`` of an int and
    ``%.17g`` of a float give the bytes ``str`` and ``format(v, ".17g")``
    give; each block's values are formatted by one %-operation.
    """
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        rows = zip(*(c[start:start + _BLOCK_ROWS].tolist() for c in columns))
        block = tuple(itertools.chain.from_iterable(rows))
        fh.write((row_format * (len(block) // len(columns))) % block)


def save_edge_list(path, edges, n: int, comment: str | None = None):
    """Write an edge list with an ``n=`` header so round-trips are exact.

    ``edges`` is a sequence of ``(i, j)`` / ``(i, j, w)`` or an (m, 2) /
    (m, 3) array; endpoints are truncated to integers and weights written
    with 17 significant digits.
    """
    a = _edge_array(edges)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={int(n)}\n")
        if comment:
            fh.write(f"# {comment}\n")
        write_rows(fh, "%d %d %.17g\n",
                   [a[:, 0].astype(np.int64), a[:, 1].astype(np.int64), a[:, 2]])


def _signal_value(path, line_no, line):
    """Parse one stripped, non-comment signal line; the reference for every error."""
    try:
        return float(line)
    except ValueError:
        raise ParseError(path, line_no, f"not a number: {line!r}") from None


def load_signal(source, n: int | None = None) -> np.ndarray:
    """Build a signal from a generator spec or a text file.

    Specs: ``dirac:k`` (unit impulse at node ``k``), ``normal:seed``
    (standard normal entries), ``const:v``. Anything else is read as a
    one-value-per-line file (``#`` comments and blank lines skipped).
    ``n`` is required for specs and, when given, validated against files.
    Files go through the record loop :func:`load_graph` uses: when every
    line after the leading blank and comment lines holds one number that
    numpy reads, numpy reads them all in one call; any other file is read
    line by line, so each ``ParseError`` carries its line number. The
    signal comes back as :func:`_signal` makes every signal: a read-only,
    finite, non-empty 1-d float64 array.
    """
    if isinstance(source, str) and ":" in source:
        head, _, arg = source.partition(":")
        if head in ("dirac", "normal", "const"):
            if n is None:
                raise ValueError(f"signal spec {source!r} needs the node count")
            if head == "dirac":
                k = int(arg)
                if not (0 <= k < n):
                    raise ValueError(f"dirac node {k} out of range for n={n}")
                v = np.zeros(n)
                v[k] = 1.0
                return _signal(v)
            if head == "normal":
                rng = np.random.default_rng(int(arg))
                return _signal(rng.standard_normal(n))
            return _signal(np.full(n, float(arg)))
    with open(source, "r", encoding="utf-8") as fh:
        # bulk rows have the one field "x", which _signal casts to floats
        values = _body(fh, source, 0, "#",
                       lambda head, line: _bulk_rows(source, head, _SIGNAL_DTYPE), _signal_value)
    if len(values) == 0:
        raise ParseError(source, 1, "signal file holds no values")
    if n is not None and len(values) != n:
        raise ValueError(f"signal length {len(values)} does not match graph size {n}")
    return _signal(values)
