"""Sparse symmetric graph operators, signals, and the I/O around them.

The operator type is a plain CSR matrix restricted to the symmetric case:
both triangles are stored explicitly, column indices are strictly
increasing within each row, and no explicit zeros are kept. Construction
validates all of that once, after which instances are immutable and safe
to share across threads.

Graph files come in two flavours: a whitespace edge list (``i j [w]``,
0-based, ``#`` comments) and Matrix Market coordinate format (symmetric,
real). Signals are one-value-per-line text files or generator specs such
as ``dirac:3``, ``normal:42``, ``const:0.5``.
"""

from __future__ import annotations

import itertools
import math
import re
import warnings

import numpy as np

from .errors import ParseError

__all__ = [
    "SparseSymMatrix",
    "GraphSignal",
    "build_laplacian",
    "erdos_renyi",
    "load_graph",
    "load_signal",
    "save_edge_list",
]


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
        The arguments, read-only.
    spectral_bound : float or None
        A known upper bound on the largest eigenvalue, read-only. Only
        :func:`build_laplacian` sets it (2, normalized); :meth:`scaled`
        carries it. Diffusion runs estimate the radius of any other matrix.

    Notes
    -----
    Symmetry is checked at construction by a transpose compare, so every
    stored ``(i, j)`` entry must have a mirror ``(j, i)`` with a bitwise
    equal value. The backing arrays are marked read-only afterwards.
    """

    __slots__ = ("_n", "_row_ptr", "_col_idx", "_values", "_spectral_bound")

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
        if np.any(np.diff(row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if col_idx.shape != values.shape or col_idx.ndim != 1:
            raise ValueError("col_idx and values must be 1-d and equal length")
        if values.size:
            if col_idx.min() < 0 or col_idx.max() >= n:
                raise ValueError("column index out of range")
            if values.size > 1:
                # strictly increasing inside each row; row boundaries exempt
                inc = np.diff(col_idx) > 0
                starts = row_ptr[1:-1]
                starts = starts[(starts > 0) & (starts < values.size)]
                boundary = np.zeros(values.size - 1, dtype=bool)
                boundary[starts - 1] = True
                if np.any(~inc & ~boundary):
                    raise ValueError("column indices must be strictly increasing within a row")
            if np.any(values == 0.0):
                raise ValueError("explicit zero entries are not allowed")
        self._n = n
        self._row_ptr = row_ptr
        self._col_idx = col_idx
        self._values = values
        self._spectral_bound = None
        self._check_symmetry()
        for a in (row_ptr, col_idx, values):
            a.flags.writeable = False

    def _check_symmetry(self):
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.row_ptr))
        order = _csr_order(self.col_idx, rows, self.n)  # the transpose's (row, col) order
        if not (
            np.array_equal(self.col_idx[order], rows)
            and np.array_equal(rows[order], self.col_idx)
            and np.array_equal(self.values[order], self.values)
        ):
            raise ValueError("matrix is not symmetric")

    @classmethod
    def _from_parts_unchecked(cls, n, row_ptr, col_idx, values,
                              spectral_bound=None) -> "SparseSymMatrix":
        # internal fast path: caller guarantees the invariants
        m = object.__new__(cls)
        m._n = int(n)
        m._row_ptr = row_ptr
        m._col_idx = col_idx
        m._values = values
        m._spectral_bound = spectral_bound
        for a in (row_ptr, col_idx, values):
            a.flags.writeable = False
        return m

    @property
    def n(self) -> int:
        return self._n

    @property
    def row_ptr(self) -> np.ndarray:
        return self._row_ptr

    @property
    def col_idx(self) -> np.ndarray:
        return self._col_idx

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def spectral_bound(self) -> float | None:
        return self._spectral_bound

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Multiply by a dense vector.

        Rows are accumulated independently with a fixed reduction order,
        so repeated calls with identical inputs are bit-identical.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {x.shape}")
        out = np.zeros(self.n)
        if self.values.size == 0:
            return out
        prod = self.values * x[self.col_idx]
        counts = np.diff(self.row_ptr)
        nonempty = counts > 0
        out[nonempty] = np.add.reduceat(prod, self.row_ptr[:-1][nonempty])
        return out

    def scaled(self, alpha: float) -> "SparseSymMatrix":
        """Return a copy with every stored value multiplied by ``alpha``.

        ``alpha`` must be positive; structure is shared with the parent,
        and a spectral bound is scaled with the values.
        """
        if not alpha > 0.0:
            raise ValueError("scale factor must be positive")
        if alpha == 1.0:
            return self
        bound = None if self.spectral_bound is None else self.spectral_bound * alpha
        return SparseSymMatrix._from_parts_unchecked(
            self.n, self.row_ptr, self.col_idx, self.values * alpha, bound
        )

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), np.diff(self.row_ptr))
        a[rows, self.col_idx] = self.values
        return a

    def __repr__(self):
        return f"SparseSymMatrix(n={self.n}, nnz={self.nnz})"


class GraphSignal:
    """Dense vertex signal: a read-only, finite, non-empty 1-d array."""

    __slots__ = ("values",)

    def __init__(self, values):
        v = np.array(values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("signal must be a non-empty 1-d array")
        if not np.all(np.isfinite(v)):
            raise ValueError("signal contains non-finite values")
        v.flags.writeable = False
        self.values = v

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __repr__(self):
        return f"GraphSignal(n={self.n})"


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
        Positive semi-definite operator. Rows of isolated nodes are empty
        under ``combinatorial`` (no explicit zeros are stored). The
        normalized operator carries ``spectral_bound = 2``: its spectrum
        lies in [0, 2].
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
    return op


def erdos_renyi(n: int, p: float, seed: int):
    """Sample a G(n, p) edge list with unit weights.

    Every unordered pair is included independently with probability
    ``p``; the draw is deterministic for a given ``seed``. Disconnected
    samples are returned as-is.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n - 1):
        hits = np.nonzero(rng.random(n - 1 - i) < p)[0]
        base = i + 1
        for off in hits:
            edges.append((i, base + int(off), 1.0))
    return edges


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


def _bulk_edges(path, head, fields, base, dims=None):
    """Columns ``i, j, w`` of the records after the head, 0-based, or None.

    Indices are read ``base``-based. None also when an edge breaks a rule
    (a self-loop, an index below 0 or at least ``dims``): the line-wise
    parser reports it.
    """
    rows = _bulk_rows(path, head, _EDGE_DTYPES[fields]) if fields in _EDGE_DTYPES else None
    if rows is None:
        return None
    i, j = rows["i"] - base, rows["j"] - base
    if np.any(i == j) or np.any(np.minimum(i, j) < 0):
        return None
    if dims is not None and np.any(np.maximum(i, j) >= dims):
        return None
    return i, j, rows["w"] if fields == 3 else np.ones(i.size)


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
    declared_n = None
    edges = []  # line-wise (i, j, w) records
    bulk = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                m = _N_TOKEN.search(line[1:])
                if m and declared_n is None:
                    declared_n = int(m.group(1))
            elif line:
                if not edges:  # the first record ends the head
                    bulk = _bulk_edges(path, line_no - 1, len(line.split()), 0)
                    if bulk is not None:
                        break
                edges.append(_edge_fields(path, line_no, line))
    if bulk is None:
        max_idx = max((max(i, j) for i, j, _ in edges), default=-1)
    else:
        max_idx = int(max(bulk[0].max(), bulk[1].max()))
        edges = np.column_stack(bulk)
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
    i = int(parts[0]) - 1
    j = int(parts[1]) - 1
    w = 1.0 if pattern else float(parts[2])
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
        dims = None
        edges = []  # line-wise (i, j, w) entries
        bulk = None
        for line_no, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if dims is None:
                parts = line.split()
                if len(parts) != 3:
                    raise ParseError(path, line_no, "expected 'rows cols nnz' size line")
                r, c, _ = (int(p) for p in parts)
                if r != c:
                    raise ParseError(path, line_no, f"matrix must be square, got {r}x{c}")
                dims = r
                continue
            if not edges:  # the first entry ends the head
                bulk = _bulk_edges(path, line_no - 1, 2 if pattern else 3, 1, dims)
                if bulk is not None:
                    break
            edges.append(_mm_entry(path, line_no, line, pattern, dims))
    if dims is None:
        raise ParseError(path, 1, "missing size line")
    if bulk is not None:
        edges = np.column_stack(bulk)
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
    The head of the file is its leading blank and comment lines, and for
    Matrix Market also the header and size lines. When every line after
    the head is a plain record with the first record's field count and no
    rule is broken, numpy reads them all in one call. Any other file (a
    comment after the head, a mix of 2- and 3-field lines, a self-loop,
    an index out of range, a token such as ``1_0`` that numpy rejects) is
    read line by line, and each ``ParseError`` carries its line number.
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


def load_signal(source, n: int | None = None) -> GraphSignal:
    """Build a signal from a generator spec or a text file.

    Specs: ``dirac:k`` (unit impulse at node ``k``), ``normal:seed``
    (standard normal entries), ``const:v``. Anything else is read as a
    one-value-per-line file (``#`` comments and blank lines skipped).
    ``n`` is required for specs and, when given, validated against files.
    When every line after the leading blank and comment lines holds one
    number that numpy reads, numpy reads them all in one call; any other
    file is read line by line, so each ``ParseError`` carries its line
    number.
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
                return GraphSignal(v)
            if head == "normal":
                rng = np.random.default_rng(int(arg))
                return GraphSignal(rng.standard_normal(n))
            return GraphSignal(np.full(n, float(arg)))
    values = []
    with open(source, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not values:  # the first value ends the head
                bulk = _bulk_rows(source, line_no - 1, _SIGNAL_DTYPE)
                if bulk is not None:
                    values = bulk["x"]
                    break
            values.append(_signal_value(source, line_no, line))
    if len(values) == 0:
        raise ParseError(source, 1, "signal file holds no values")
    if n is not None and len(values) != n:
        raise ValueError(f"signal length {len(values)} does not match graph size {n}")
    return GraphSignal(values)
