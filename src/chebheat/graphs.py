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

import hashlib
import itertools
import math
import re

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


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


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
    spectral_bound : float, optional
        A known upper bound on the largest eigenvalue, such as 2 for a
        normalized Laplacian. It is trusted as given, carried through
        :meth:`scaled`, and spares diffusion runs the power iteration.

    Notes
    -----
    Symmetry is checked at construction by a transpose compare, so every
    stored ``(i, j)`` entry must have a mirror ``(j, i)`` with a bitwise
    equal value. The backing arrays are marked read-only afterwards.
    """

    __slots__ = ("n", "row_ptr", "col_idx", "values", "spectral_bound", "_fp")

    def __init__(self, n, row_ptr, col_idx, values, spectral_bound=None):
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
        self.n = n
        self.row_ptr = row_ptr
        self.col_idx = col_idx
        self.values = values
        self.spectral_bound = None if spectral_bound is None else float(spectral_bound)
        self._check_symmetry()
        for a in (row_ptr, col_idx, values):
            a.flags.writeable = False
        self._fp = None

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
        m.n = int(n)
        m.row_ptr = row_ptr
        m.col_idx = col_idx
        m.values = values
        m.spectral_bound = spectral_bound
        for a in (row_ptr, col_idx, values):
            a.flags.writeable = False
        m._fp = None
        return m

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @property
    def fingerprint(self) -> str:
        """Hex digest of the full stored content (structure and values)."""
        if self._fp is None:
            self._fp = _digest(
                np.asarray([self.n], dtype=np.int64),
                self.row_ptr,
                self.col_idx,
                self.values,
            )
        return self._fp

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
    """Dense vertex signal with cached aggregate statistics.

    The squared Euclidean norm and the plain component sum are computed
    once at construction and reused by the error-bound machinery.
    """

    __slots__ = ("values", "norm_sq", "component_sum")

    def __init__(self, values):
        v = np.array(values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("signal must be a non-empty 1-d array")
        if not np.all(np.isfinite(v)):
            raise ValueError("signal contains non-finite values")
        v.flags.writeable = False
        self.values = v
        self.norm_sq = float(v @ v)
        self.component_sum = float(np.sum(v))

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __repr__(self):
        return f"GraphSignal(n={self.n}, norm_sq={self.norm_sq:.6g})"


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
    bound = None
    if kind == "normalized":
        isolated = np.nonzero(deg == 0.0)[0]
        if isolated.size:
            raise ValueError(
                f"normalized laplacian undefined: node {int(isolated[0])} is isolated"
            )
        off = -w / np.sqrt(deg[lo] * deg[hi])
        diag_vals = np.ones(n)
        diag_idx = np.arange(n, dtype=np.int64)
        bound = 2.0
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
    return SparseSymMatrix(n, row_ptr, cols, vals, spectral_bound=bound)


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

# bytes a token may hold on a line the bulk reader reads
_NUMERIC_BYTES = np.zeros(256, dtype=bool)
_NUMERIC_BYTES[list(b"0123456789.eE+-")] = True
_MAX_DIGITS = 18  # every 18-digit decimal fits in an int64


def _digit_values(buf, starts, ends):
    """Values of the all-digit tokens ``buf[starts:ends]`` as int64."""
    length = ends - starts
    out = np.zeros(starts.size, dtype=np.int64)
    for width in np.flatnonzero(np.bincount(length)).tolist():
        sel = np.flatnonzero(length == width)
        at = starts[sel]
        acc = np.zeros(sel.size, dtype=np.int64)
        for d in range(width):
            acc = acc * 10 + (buf[at + d] - 48)
        out[sel] = acc
    return out


class _TextLines:
    """Line and token positions of a text file, for reading it in bulk.

    ``data`` holds the file's bytes after universal-newline translation,
    so its lines are what ``readlines`` gives. Line numbers are 1-based.
    """

    def __init__(self, data: bytes):
        self.text = b"\n" + data + b"\n"
        buf = np.frombuffer(self.text, dtype=np.uint8)
        self.buf = buf
        # line k lies between newline[k - 1] and newline[k]
        self.newline = np.flatnonzero(buf == 10)
        is_tok = (buf != 32) & (buf != 10) & (buf != 9)
        self.starts = np.flatnonzero(is_tok[1:] & ~is_tok[:-1]) + 1
        self.ends = np.flatnonzero(is_tok[:-1] & ~is_tok[1:]) + 1
        self.counts = np.diff(np.searchsorted(self.starts, self.newline))
        nondigit = np.flatnonzero(is_tok & ((buf - 48) > 9))
        self.nondigit_tok = np.zeros(self.starts.size, dtype=bool)
        self.nondigit_tok[np.searchsorted(self.starts, nondigit, side="right") - 1] = True
        self.odd_line = np.zeros(self.counts.size, dtype=bool)
        odd = nondigit[~_NUMERIC_BYTES[buf[nondigit]]]
        self.odd_line[np.searchsorted(self.newline, odd) - 1] = True

    @property
    def size(self) -> int:
        return int(self.counts.size)

    def line(self, k: int) -> str:
        return self.text[self.newline[k - 1] + 1:self.newline[k]].decode("utf-8")

    def rows(self, fields: int | None = None):
        """Read every line that is a plain numeric record, without a per-line loop.

        A record is ``fields`` tokens (2 or 3; ``None`` takes the count
        more lines have) separated by spaces or tabs: two runs of at most
        18 ASCII digits, then a token of ``0-9 . e E + -`` that ``float``
        accepts. ``int`` and ``float`` read such a line to the values
        computed here, so the result is what a line-wise parser gives.

        Returns
        -------
        (line_no, i, j, w, slow)
            Line numbers and int64 columns ``i``, ``j`` of the records, and
            their float64 weights (ones for two fields), then the sorted
            numbers of the other non-blank lines, left to the line-wise
            parser.
        """
        counts = self.counts
        if fields is None:
            fields = 2 if np.count_nonzero(counts == 2) > np.count_nonzero(counts == 3) else 3
        good = (counts == fields) & ~self.odd_line
        tok = np.repeat(good, counts)
        s = self.starts[tok].reshape(-1, fields)
        e = self.ends[tok].reshape(-1, fields)
        irregular = self.nondigit_tok[tok].reshape(-1, fields) | (e - s > _MAX_DIGITS)
        keep = ~irregular[:, 0] & ~irregular[:, 1]
        i = _digit_values(self.buf, s[:, 0], e[:, 0])
        j = _digit_values(self.buf, s[:, 1], e[:, 1])
        w = np.ones(s.shape[0])
        if fields == 3:
            plain = ~irregular[:, 2]
            w[plain] = _digit_values(self.buf, s[plain, 2], e[plain, 2])
            other = np.flatnonzero(~plain)
            for r, a, b in zip(other.tolist(), s[other, 2].tolist(), e[other, 2].tolist()):
                try:
                    w[r] = float(self.text[a:b])
                except ValueError:
                    keep[r] = False
        line_no = np.flatnonzero(good)[keep] + 1
        read = np.zeros(counts.size, dtype=bool)
        read[line_no - 1] = True
        slow = np.flatnonzero((counts > 0) & ~read) + 1
        return line_no, i[keep], j[keep], w[keep], slow


def _merge_rows(line_no, i, j, w, extra):
    """(m, 3) edge array of bulk rows and line-wise ``(line_no, i, j, w)`` rows, in file order."""
    edges = np.column_stack([i, j, w])
    if not extra:
        return edges
    extra_lines, *extra_cols = zip(*extra)
    edges = np.concatenate([edges, np.array(extra_cols, dtype=np.float64).T])
    return edges[np.argsort(np.concatenate([line_no, extra_lines]))]


def _flagged(slow, line_no, mask):
    """``slow`` with the bulk rows under ``mask`` added: the line-wise parser reports them."""
    return np.union1d(slow, line_no[mask]).astype(np.int64)


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


def _parse_edge_list(path, lines):
    line_no, i, j, w, slow = lines.rows()
    slow = _flagged(slow, line_no, i == j)
    declared_n = None
    extra = []
    for k in slow.tolist():
        line = lines.line(k).strip()
        if line.startswith("#"):
            m = _N_TOKEN.search(line[1:])
            if m and declared_n is None:
                declared_n = int(m.group(1))
        elif line:
            extra.append((k, *_edge_fields(path, k, line)))
    max_idx = max([-1] + [int(c.max()) for c in (i, j) if c.size]
                  + [max(e[1], e[2]) for e in extra])
    n = declared_n if declared_n is not None else max_idx + 1
    if n < 1:
        raise ParseError(path, 1, "file declares no nodes")
    if max_idx >= n:
        raise ParseError(path, 1, f"node index {max_idx} exceeds declared n={n}")
    return _merge_rows(line_no, i, j, w, extra), n


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


def _parse_matrix_market(path, lines):
    if lines.text == b"\n\n":  # nothing between the two sentinel newlines
        raise ParseError(path, 1, "empty file")
    fields = lines.line(1).strip().lower().split()
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
    for size_line in range(2, lines.size + 1):
        line = lines.line(size_line).strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(path, size_line, "expected 'rows cols nnz' size line")
        r, c, _ = (int(p) for p in parts)
        if r != c:
            raise ParseError(path, size_line, f"matrix must be square, got {r}x{c}")
        dims = r
        break
    if dims is None:
        raise ParseError(path, 1, "missing size line")
    line_no, i, j, w, slow = lines.rows(2 if pattern else 3)
    body = line_no > size_line
    line_no, i, j, w = line_no[body], i[body] - 1, j[body] - 1, w[body]
    slow = _flagged(slow[slow > size_line], line_no,
                    (i == j) | (i < 0) | (i >= dims) | (j < 0) | (j >= dims))
    extra = []
    for k in slow.tolist():
        line = lines.line(k).strip()
        if line and not line.startswith("%"):
            extra.append((k, *_mm_entry(path, k, line, pattern, dims)))
    return _merge_rows(line_no, i, j, w, extra), dims


def load_graph(path, fmt: str | None = None):
    """Load an undirected graph file.

    Parameters
    ----------
    path : str or Path
        Edge-list or Matrix Market file. The format is sniffed from the
        first line unless ``fmt`` is one of ``"edge-list"`` /
        ``"matrix-market"``.
    fmt : str, optional
        Force a specific parser.

    Returns
    -------
    (edges, n)
        An (m, 3) float array of edges ``i, j, w`` in file order, and the
        node count. For edge lists, ``n`` is ``1 + max index`` unless a
        ``# ... n=<int>`` comment declares it.

    Notes
    -----
    Lines that are plain numeric records are read in bulk; every other
    line, and every line that breaks a rule, goes through the line-wise
    parser, which raises each ``ParseError`` with its line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = _TextLines(fh.read().encode("utf-8"))
    if fmt is None:
        first = ""
        for k in range(1, lines.size + 1):
            first = lines.line(k).strip()
            if first:
                break
        fmt = "matrix-market" if first.lower().startswith("%%matrixmarket") else "edge-list"
    if fmt == "matrix-market":
        return _parse_matrix_market(path, lines)
    if fmt == "edge-list":
        return _parse_edge_list(path, lines)
    raise ValueError(f"unknown graph format: {fmt!r}")


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


_PLAIN_SIGNAL_BYTES = b"0123456789.eE+-\n"  # all a signal file read in bulk may hold


def load_signal(source, n: int | None = None) -> GraphSignal:
    """Build a signal from a generator spec or a text file.

    Specs: ``dirac:k`` (unit impulse at node ``k``), ``normal:seed``
    (standard normal entries), ``const:v``. Anything else is read as a
    one-value-per-line file (``#`` comments and blank lines skipped).
    ``n`` is required for specs and, when given, validated against files.
    A file whose lines are all blank or one plain number (``0-9 . e E +
    -``, no spaces) is read in bulk; any other file is read line by line,
    so each ``ParseError`` carries its line number.
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
    with open(source, "r", encoding="utf-8") as fh:
        text = fh.read()
    values = None
    data = text.encode("utf-8")
    if not data.translate(None, _PLAIN_SIGNAL_BYTES):
        # every line is blank or one token, which float reads as the line-wise pass does
        try:
            values = list(map(float, data.split()))
        except ValueError:
            pass  # the line-wise pass names the line
    if values is None:
        values = []
        for line_no, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ParseError(source, line_no, f"not a number: {line!r}") from None
    if not values:
        raise ParseError(source, 1, "signal file holds no values")
    if n is not None and len(values) != n:
        raise ValueError(f"signal length {len(values)} does not match graph size {n}")
    return GraphSignal(values)
