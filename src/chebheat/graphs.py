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
one calls ``reduceat``. Either way the bits are the same. Most entries of
such a plane sit on one diagonal, ``col = row + shift``, as in the DIA
format: the plane multiplies a shifted slice of the input and gathers
only its misses, the rows off that diagonal, as the HYB format splits
off its exceptions (Bell and Garland, SC 2009). A plane that misses in
more than a quarter of its rows, such as any plane of a relabelled
lattice, is gathered whole.

:func:`build_laplacian` sorts only what needs it. Edges already in
(lo, hi) order with no duplicate skip the sort that groups duplicates,
and the CSR arrays take one argsort of the edges, for the lower
triangle, and passes linear in the entries: row i is its lower
entries, its diagonal and its upper entries, and each entry's slot is
its row's start plus a count, as in a CSR transpose by counting
(Gustavson, ACM TOMS 4(3), 1978). The builder knows where
each entry's transpose lands, and the operator's symmetry check reads
those mirror positions in place of the sort that the public
constructor makes.

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

:func:`save_edge_list` writes through :func:`chebheat._rows.write_rows`,
the package's one row writer, with the bytes ``%`` gives; that module
holds how numpy renders them and the proof.

Random graphs come from :func:`erdos_renyi`, which on a large graph
draws its one random stream in two halves at once, the second on one
helper thread. :func:`_helper_cpus` is the package's one rule for
whether, and off which CPU, a helper thread runs, and
:class:`_helper_thread` its one runner: it starts, places and joins every
helper thread, this one and :func:`chebheat.chebyshev.combine`'s, and
relays the errors of both to the calling thread, so the threads hold
only their work.
"""

from __future__ import annotations

import math
import os
import re
import threading
import warnings

import numpy as np

from ._rows import write_rows
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
# (((a_1 + a_2) + a_3) + ...) + a_0, an order the test suite pins, and
# longer rows in another. On 2 vCPUs (medians of 40 x 20 calls, one BLAS
# thread, four runs) a 200x200 lattice matvec, rows of 3 to 5, took 0.25 to
# 0.41 ms padded against 0.80 to 1.7 ms with reduceat; a normalized ER
# n = 20000 one, rows of up to 44, took 2.0 to 4.1 ms padded against 1.4 to
# 2.8 ms, slower in every run.
_PLANE_MAX_WIDTH = 8
# A padded plane whose rows miss its shift in more than this share is
# gathered whole: a miss costs three small gathers and a scatter, a row of a
# whole-plane gather one gather. On 2 vCPUs (one BLAS thread, medians of 30
# x 100 calls) one 40000-row plane whose misses read scattered columns took
# 32, 47, 70 and 114 us shifted at 2%, 10%, 25% and 50% misses, against 43
# to 46 us gathered whole. Real misses come in runs and cost less (timeit
# minima of 60 x 10 matvecs, two runs): a 34x34x34 grid, whose planes miss
# in 3% to 17% of their rows, took 0.40 to 0.45 ms at this share and 0.46
# to 0.47 ms with its two 14% to 17% planes gathered; a 1000x3 lattice,
# whose planes miss in 0.1%, 33% and 67% of their rows, took 0.037 to 0.042
# ms here and 0.051 to 0.052 ms with its 33% planes shifted. These are
# microbenchmarks only: no benchmark workload gathers a plane whole (the
# lattice workload's planes miss in about 1% of their rows, the others'
# operators are wider than _PLANE_MAX_WIDTH).
_SHIFT_MAX_MISSES = 0.25


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
        matvec's padded planes only, the column planes, with each plane's
        shift and misses, shared with its :meth:`scaled` copies, and
        gathers each array, with the same bits, on first use.
    spectral_bound : float or None
        A known upper bound on the largest eigenvalue, read-only. Only
        :func:`build_laplacian` sets it (2, normalized); :meth:`scaled`
        carries it. For any other matrix a diffusion run under ``auto`` or
        a tail kind takes a certified ceiling, and one under the paper's
        four kinds an inflated power-iteration estimate (see
        :func:`chebheat.diffusion.make_plan`).
    kernel_vector : ndarray or None
        A known nonzero vector ``k`` with ``A k = 0``, read-only. Only
        :func:`build_laplacian` sets it: ``ones(n)`` for a combinatorial
        Laplacian, ``sqrt(deg)`` for a normalized one; :meth:`scaled`
        carries it. ``None`` for every matrix built directly.

    Notes
    -----
    Symmetry is checked at construction by a transpose compare, so every
    stored ``(i, j)`` entry must have a mirror ``(j, i)`` with an equal
    value; non-finite entries are refused before it. The constructor
    finds the mirrors by sorting the entries; :func:`build_laplacian`
    passes the mirror positions it placed them at instead. The backing
    arrays are marked read-only afterwards.

    Entry ``j`` of row ``i`` sits in padded plane ``j``. Construction
    also keeps each plane's shift, its most common offset ``col - i``,
    and its misses, the rows where the offset differs (rows at a
    boundary, padding slots, empty rows) with their columns. A product
    reads the rows on the shift as one slice of the input and gathers
    the misses alone; a plane that misses in more than
    ``_SHIFT_MAX_MISSES`` of its rows, such as every plane of a
    relabelled lattice, is gathered whole.

    The certified bounds need a positive semidefinite operator, and the
    specific ones also a kernel vector. An operator with a kernel vector
    comes from :func:`build_laplacian` (or :meth:`scaled`), so it is
    positive semidefinite; a diffusion run checks any other matrix by
    Gershgorin and refuses one it cannot show to be semidefinite, and
    certifies it with the generic bounds only (see
    :func:`chebheat.diffusion.make_plan`).

    Facts derived from the operator alone (the certified ceiling and the
    power-iteration estimate of its spectral radius, its dense
    eigendecomposition) are kept in a
    private per-object dict that starts empty, also on a :meth:`scaled`
    copy, and lives and dies with the operator. Only the function that
    computes a fact reads and fills its entry. Two threads that miss
    together both compute it, and both get the same bits.
    """

    __slots__ = ("_n", "_row_ptr", "_col_idx", "_values", "_spectral_bound", "_kernel",
                 "_facts", "_row_starts", "_nonempty", "_cols", "_vals", "_shifts", "_misses")

    def __init__(self, n, row_ptr, col_idx, values):
        self._setup(int(n), np.array(row_ptr, dtype=np.int64), np.array(col_idx, dtype=np.int64),
                    np.array(values, dtype=np.float64), None)

    def _setup(self, n, row_ptr, col_idx, values, mirror):
        """Check and lay out the int ``n`` and the new int64 and float64 arrays, which it keeps.

        Every check of the constructor runs, and symmetry is checked from
        ``mirror`` (see :meth:`_check_symmetry`): None, as the constructor
        passes it, sorts the entries for it, and :func:`build_laplacian`
        passes the mirror positions it placed.
        """
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
            if not np.all(np.isfinite(values)):
                raise ValueError("non-finite entries are not allowed")
        self._n = n
        self._row_ptr = row_ptr
        self._col_idx = col_idx
        self._values = values
        self._spectral_bound = None
        self._kernel = None
        self._facts = {}
        self._check_symmetry(rows, mirror)
        # matvec's padded layout, for rows of at most _PLANE_MAX_WIDTH entries:
        # entry j of row i sits in plane j. A padding slot holds 1.0 and reads
        # x[n] = -0.0, the additive identity, except the first slot of an empty
        # row, which reads x[n + 1] = +0.0, so that the row sums to +0.0. Such
        # an operator keeps its entries in the planes only (see ``col_idx``).
        # Each plane also keeps its shift and misses (see _plane_shifts).
        # Otherwise the reduceat layout: the start of every non-empty row, and
        # which rows those are (None when no row is empty).
        self._cols = self._vals = self._shifts = self._misses = None
        self._row_starts = self._nonempty = None
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
            self._shifts, self._misses = _plane_shifts(self._cols)
        else:
            nonempty = counts > 0
            self._nonempty = None if nonempty.all() else nonempty
            self._row_starts = row_ptr[:-1] if self._nonempty is None else row_ptr[:-1][nonempty]
        for a in (row_ptr, col_idx, values, self._row_starts, self._nonempty, self._cols,
                  self._vals, self._shifts, *(self._misses or ())):
            if a is not None:
                a.flags.writeable = False

    def _from_planes(self, planes):
        """The real entries of ``planes`` in CSR order, read-only."""
        entries = planes.T[self._cols.T < self.n]  # row by row
        entries.flags.writeable = False
        return entries

    def _diagonal(self):
        """Each stored entry's row, column and value, which are off the diagonal, and the diagonal.

        A padded-plane operator's entries are read from its planes in
        place, so that no CSR array is gathered and kept; its padding
        slots (column ``n`` or ``n + 1``) are neither on the diagonal nor
        off it. Entry j of row i sits in plane j, so a row's entries still
        come in CSR order.
        """
        if self._cols is not None:
            rows = np.broadcast_to(np.arange(self.n), self._cols.shape)
            cols, vals = self._cols, self._vals
        else:
            rows = np.repeat(np.arange(self.n), np.diff(self.row_ptr))
            cols, vals = self.col_idx, self.values
        on_diag = rows == cols
        diag = np.zeros(self.n)
        diag[rows[on_diag]] = vals[on_diag]
        return rows, cols, vals, ~on_diag & (cols < self.n), diag

    def _check_symmetry(self, rows, mirror):
        """Raise ``ValueError`` unless entry ``mirror[p]`` is the transpose of entry p, for every p.

        That is, it sits at ``(col_idx[p], rows[p])`` and holds an equal
        value. Since no two entries share a position, that proves the
        matrix symmetric, whatever ``mirror`` is given. None sorts the
        entries into the transpose's (row, col) order, which on a symmetric
        matrix puts each entry's mirror where the entry is.
        """
        if mirror is None:
            mirror = np.argsort(self.col_idx * self.n + rows)
        if not (
            np.array_equal(self.col_idx[mirror], rows)
            and np.array_equal(rows[mirror], self.col_idx)
            and np.array_equal(self.values[mirror], self.values)
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
        ``(((a_1 + a_2) + a_3) + ...) + a_0``, which the padded planes
        follow in one pass per plane, each plane read from a shifted slice
        of ``x`` with its misses gathered, or gathered whole, into two
        work vectors; wider operators call ``reduceat``. No buffer
        outlives a call, so threads may share the operator.
        """
        return self._product(x, absolute=False)

    def _product(self, x, absolute: bool) -> np.ndarray:
        """:meth:`matvec`, or with ``absolute`` the product with ``|A|``, entrywise.

        Reads the layout that serves the operator, so neither gathers
        CSR arrays that the padded planes hold.
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
            out = np.empty(self.n)
            if len(self._cols) == 1:
                return self._plane(0, padded, absolute, out)
            # (((a_1 + a_2) + a_3) + ...) + a_0, in two vectors
            acc = self._plane(1, padded, absolute, np.empty(self.n))
            for j in range(2, len(self._cols)):
                acc += self._plane(j, padded, absolute, out)
            return np.add(acc, self._plane(0, padded, absolute, out), out=out)
        values = np.abs(self.values) if absolute else self.values
        sums = np.add.reduceat(values * x[self.col_idx], self._row_starts)
        if self._nonempty is None:
            return sums
        out = np.zeros(self.n)
        out[self._nonempty] = sums
        return out

    def _plane(self, j, padded, absolute, out):
        """Plane j's products ``vals[j] * padded[cols[j]]``, of ``|vals|`` with ``absolute``.

        Written to ``out``, which is returned. The rows on the plane's
        shift read one slice of ``padded``, and only its misses are
        gathered, unless the plane is gathered whole.
        """
        vals = np.abs(self._vals[j]) if absolute else self._vals[j]
        misses = self._misses[j]
        if misses is None:
            # every column is in range; the default mode would buffer ``out``
            np.take(padded, self._cols[j], out=out, mode="clip")
            return np.multiply(vals, out, out=out)
        shift = int(self._shifts[j])
        lo, hi = max(0, -shift), min(self.n, self.n + 2 - shift)
        np.multiply(vals[lo:hi], padded[lo + shift:hi + shift], out=out[lo:hi])
        rows, cols = misses
        out[rows] = vals[rows] * padded[cols]
        return out

    def scaled(self, alpha: float) -> "SparseSymMatrix":
        """Return a copy with every stored value multiplied by ``alpha``.

        ``alpha`` must be positive and finite; structure and kernel
        vector are shared with the parent, and a spectral bound is
        scaled with the values.
        """
        if not 0.0 < alpha < math.inf:
            raise ValueError("scale factor must be positive and finite")
        if alpha == 1.0:
            return self
        # same structure, new stored values: the invariants hold by construction,
        # and alpha > 0 keeps the kernel and positive semidefiniteness
        m = object.__new__(type(self))
        for name in ("_n", "_row_ptr", "_col_idx", "_row_starts", "_nonempty", "_cols",
                     "_shifts", "_misses", "_kernel"):
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


def _plane_shifts(cols):
    """Each padded plane's shift and misses: see :class:`SparseSymMatrix`.

    The shift of plane j is its most common offset ``cols[j, i] - i``
    (the smallest of any tie). Its misses are a (2, m) array: the rows
    where the offset differs (boundary rows, padding slots, empty rows)
    and their columns; None, to gather the plane whole, when they are
    more than ``_SHIFT_MAX_MISSES`` of its rows.
    """
    n = cols.shape[1]
    shifts, misses = [], []
    for plane in cols:
        offsets = plane - np.arange(n)
        shift = int(np.argmax(np.bincount(offsets + n))) - n
        rows = np.flatnonzero(offsets != shift)
        shifts.append(shift)
        misses.append(None if rows.size > _SHIFT_MAX_MISSES * n else np.stack([rows, plane[rows]]))
    return np.array(shifts, dtype=np.int64), tuple(misses)


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
        a = np.asarray(edges, dtype=np.float64)  # a float64 array is used as it is
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


def _checked_edges(edges, n):
    """The endpoints, as integers, and the weights of ``edges`` on ``n`` nodes, checked.

    Endpoints are truncated to integers as ``int`` would. ``ValueError``
    names ``n`` below 1, or the first edge with an endpoint out of range,
    a self-loop or a weight that is not positive and finite: what
    :func:`build_laplacian` refuses, and :func:`save_edge_list` does not
    write.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
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
    return ii, jj, w


def _accumulate_edges(edges, n):
    """Canonicalize, validate (:func:`_checked_edges`), and sum duplicate undirected edges.

    Duplicates are summed in input order. Edges come back in (lo, hi)
    order; edges that are in that order already, with no duplicate, as
    ``erdos_renyi`` and every written edge list give them, are not
    grouped: each sum is its one weight.
    """
    ii, jj, w = _checked_edges(edges, n)
    lo = np.minimum(ii, jj)
    hi = np.maximum(ii, jj)
    key = lo * n + hi
    if np.all(key[1:] > key[:-1]):
        return lo, hi, w
    uniq, inverse = np.unique(key, return_inverse=True)
    wsum = np.bincount(inverse, weights=w, minlength=uniq.size)
    return uniq // n, uniq % n, wsum


def _normalized_off(lo, hi, w, deg):
    """The off-diagonal entries ``-w / sqrt(deg[lo] * deg[hi])`` of a normalized Laplacian.

    Where the product of the degrees is a normal double the expression
    runs as written. Elsewhere (the product overflows or falls below the
    normal range) both degrees are scaled by ``2**-j``, which brings their
    product near 1, and the weight and the root by one more power of two
    that keeps both exact, so the one rounding is of the value the
    expression would round with an unbounded exponent. So every entry is
    the same when all weights are scaled by a power of two. An entry that
    rounds to zero raises ``ValueError`` naming its edge.
    """
    d_lo, d_hi = deg[lo], deg[hi]
    with np.errstate(over="ignore", divide="ignore"):  # such products are done again below
        prod = d_lo * d_hi
        off = -w / np.sqrt(prod)
    odd = np.flatnonzero(~((prod >= np.finfo(np.float64).smallest_normal) & (prod < np.inf)))
    if odd.size:
        d_lo, d_hi, w = d_lo[odd], d_hi[odd], w[odd]
        j = (np.frexp(d_lo)[1] + np.frexp(d_hi)[1]) // 2
        root = np.sqrt(np.ldexp(d_lo, -j) * np.ldexp(d_hi, -j))
        a = np.minimum(j, np.frexp(w)[1] + 1021)  # w * 2**-a stays normal
        with np.errstate(over="ignore"):  # a root past the range leaves -0.0, refused below
            off[odd] = -np.ldexp(w, -a) / np.ldexp(root, j - a)
    zero = np.flatnonzero(off == 0.0)
    if zero.size:
        k = int(zero[0])
        raise ValueError(f"normalized laplacian entry of edge ({int(lo[k])}, {int(hi[k])}) "
                         "underflows to zero")
    return off


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

    Notes
    -----
    Assembly sorts only the edges that need it, in passes linear in the
    entries otherwise. Edges already in (lo, hi) order with no duplicate
    skip the grouping of :func:`_accumulate_edges`. Row i holds its
    lower entries, its diagonal and its upper entries, each run in column
    order: the upper entries are the edges in (lo, hi) order, and one
    argsort of the ``m`` keys ``hi * n + lo`` orders the lower ones, so
    every entry's slot is its row's start plus a count. The builder knows
    where each entry's transpose lands, and hands those mirror positions
    to the operator's symmetry check in place of the constructor's sort
    of all the entries; the map is dropped after the check.

    A degree that overflows to ``inf`` raises ``ValueError`` naming its
    node. The normalized entries are ``-w / sqrt(deg[lo] * deg[hi])``,
    rescaled by powers of two where that product leaves the normal range
    (see :func:`_normalized_off`), so they do not change when every
    weight is scaled by a power of two; an entry that rounds to zero
    raises ``ValueError`` naming its edge.
    """
    if kind not in ("combinatorial", "normalized"):
        raise ValueError(f"unknown laplacian kind: {kind!r}")
    n = int(n)
    lo, hi, w = _accumulate_edges(edges, n)
    # one bincount over lo then hi adds in the order add.at(lo), add.at(hi) would
    deg = np.bincount(np.concatenate([lo, hi]), weights=np.concatenate([w, w]), minlength=n)
    overflow = np.flatnonzero(deg == np.inf)
    if overflow.size:
        raise ValueError(f"degree of node {int(overflow[0])} overflows to inf")
    if kind == "normalized":
        isolated = np.nonzero(deg == 0.0)[0]
        if isolated.size:
            raise ValueError(
                f"normalized laplacian undefined: node {int(isolated[0])} is isolated"
            )
        off = _normalized_off(lo, hi, w, deg)
    else:
        off = -w
    has_diag = deg > 0.0
    # row i: its lower entries, the edges with hi == i, then its diagonal,
    # then its upper entries, the edges with lo == i
    lower = np.bincount(hi, minlength=n)
    upper = np.bincount(lo, minlength=n)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lower + has_diag + upper, out=row_ptr[1:])
    # the slot of edge k's upper entry, in (lo, hi) order, follows k upper entries
    # and the lower and diagonal entries of rows up to lo[k]; the slot of the lower
    # entry of edge order[k], in (hi, lo) order, follows k lower entries and the
    # diagonal and upper entries of the rows above
    up = np.repeat(np.cumsum(lower + has_diag), upper)
    up += np.arange(lo.size)
    order = np.argsort(hi * n + lo)
    above = has_diag + upper
    low = np.repeat(np.cumsum(above) - above, lower)
    low += np.arange(lo.size)
    diag = (row_ptr[:-1] + lower)[has_diag]
    cols = np.empty(row_ptr[-1], dtype=np.int64)
    vals = np.empty(row_ptr[-1])
    cols[up], vals[up] = hi, off
    cols[low], vals[low] = lo[order], off[order]
    cols[diag] = np.flatnonzero(has_diag)
    vals[diag] = 1.0 if kind == "normalized" else deg[has_diag]
    up = up[order]  # the upper slot of the edge of each lower slot
    mirror = np.empty(row_ptr[-1], dtype=np.int64)
    mirror[up], mirror[low], mirror[diag] = low, up, diag
    op = object.__new__(SparseSymMatrix)
    op._setup(n, row_ptr, cols, vals, mirror)
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
    must make ``work`` return. ``with`` binds a list that stays empty
    until ``work`` raises and then holds its error, so the body can stop
    early. After the join that error is raised here, unless the body
    raised first. The one place where the package starts, places and
    joins a thread, and the one that catches every error: both helpers'
    errors, :func:`erdos_renyi`'s and :func:`chebheat.chebyshev.combine`'s,
    reach the calling thread only through it.
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
        return self._error

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


def save_edge_list(path, edges, n: int, comment: str | None = None):
    """Write an edge list with an ``n=`` header so round-trips are exact.

    ``edges`` is a sequence of ``(i, j)`` / ``(i, j, w)`` or an (m, 2) /
    (m, 3) array; endpoints are truncated to integers and weights written
    with 17 significant digits. Edges are checked as
    :func:`build_laplacian` checks them, so that :func:`load_graph` reads
    back every file written; ``ValueError`` names the first bad edge
    before the file is opened.
    """
    n = int(n)
    i, j, w = _checked_edges(edges, n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={n}\n")
        if comment:
            fh.write(f"# {comment}\n")
        write_rows(fh, " ", [i, j], [w])


def _spec_field(spec, field, convert, text):
    """``convert(text)``, the ``field`` of ``spec``; a ``ValueError`` names both when it fails.

    A ``seed`` fails below 0 too: numpy seeds a generator with no negative int.
    """
    try:
        value = convert(text)
    except ValueError:
        raise ValueError(f"{spec}: {field} {text!r} is not a valid {convert.__name__}") from None
    if field == "seed" and value < 0:
        raise ValueError(f"{spec}: seed {text!r} is negative")
    return value


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
            field = {"dirac": "node k", "normal": "seed"}.get(head, "value v")
            value = _spec_field(f"signal spec {source!r}", field,
                                float if head == "const" else int, arg)
            if head == "dirac":
                if not (0 <= value < n):
                    raise ValueError(f"dirac node {value} out of range for n={n}")
                return _signal(np.eye(1, n, value)[0])
            if head == "normal":
                return _signal(np.random.default_rng(value).standard_normal(n))
            return _signal(np.full(n, value))
    with open(source, "r", encoding="utf-8") as fh:
        # bulk rows have the one field "x", which _signal casts to floats
        values = _body(fh, source, 0, "#",
                       lambda head, line: _bulk_rows(source, head, _SIGNAL_DTYPE), _signal_value)
    if len(values) == 0:
        raise ParseError(source, 1, "signal file holds no values")
    if n is not None and len(values) != n:
        raise ValueError(f"signal length {len(values)} does not match graph size {n}")
    return _signal(values)
