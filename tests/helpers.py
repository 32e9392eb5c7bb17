"""Shared oracles and small graph builders for the test suite.

The Bessel oracle goes through mpmath at 50 digits so library output
can be checked against an implementation it shares no code with.
``series_sum`` sums a truncated series term by term, ``eval_scalar``
evaluates it at scalar points, ``same_operator`` compares operators
bit for bit, and ``force_combine_helper`` sends every ``combine`` call
through its helper thread. ``coeff_integral`` (Simpson quadrature of the defining
integral) is the coefficient oracle, and ``certified_tail`` reads the
library's summed coefficient tail at one order. The ``reference_*`` functions are the CSR
validator, line-by-line graph and signal readers, edge assembly, edge
writer, per-row ER sampler, numpy-scalar Bessel recurrence, linear
order scan and per-order measured scan that the array, blocked-draw,
Python-float, bisection and shared-basis code must match exactly.
"""

import functools
import math
import os
import re

import mpmath as mp
import numpy as np

from chebheat import chebyshev
from chebheat.bessel import ORDER_CAP
from chebheat.bounds import _TAIL_KINDS, BoundKind, _log_bound_of, _log_tail_sq, log_bound_value
from chebheat.chebyshev import cheb_coefficients, cheb_partial_sums, cheb_terms
from chebheat.errors import OrderCapError, ParseError
from chebheat.graphs import SparseSymMatrix

mp.mp.dps = 50


def ie_reference(k: int, tau: float) -> float:
    """Scaled modified Bessel value exp(-tau) * I_k(tau) at 50 digits."""
    t = mp.mpf(repr(float(tau)))
    return float(mp.besseli(k, t) * mp.e ** (-t))


def path_edges(n: int):
    return [(i, i + 1) for i in range(n - 1)]


def complete_edges(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def star_edges(n: int):
    # hub is node 0
    return [(0, i) for i in range(1, n)]


def lattice_edges(*shape):
    """Edges of the grid graph on ``shape``, nodes numbered in C order."""
    idx = np.arange(int(np.prod(shape))).reshape(shape)
    edges = []
    for axis in range(len(shape)):
        lo = np.delete(idx, -1, axis=axis).ravel()
        hi = np.delete(idx, 0, axis=axis).ravel()
        edges += list(zip(lo.tolist(), hi.tolist()))
    return edges


def reference_erdos_renyi(n: int, p: float, seed: int):
    """G(n, p) edges as ``(i, j, 1.0)`` tuples, one draw of ``rng.random`` per row."""
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


def reference_miller_vector(k_max: int, tau: float):
    """``bessel._miller_vector`` run on numpy scalars, and how often it rescaled.

    The same backward recurrence, start and normalization, stepped in
    a numpy array: the library's Python-float loop must give its bits.
    """
    margin = int(math.ceil(10.0 + 2.0 * math.sqrt(k_max + tau)))
    start = max(k_max, int(math.ceil(tau))) + margin
    f = np.zeros(start + 2)
    f[start] = 1e-30
    rescales = 0
    for k in range(start, 0, -1):
        nxt = f[k + 1] + (2.0 * k / tau) * f[k]
        if nxt > 1e250:
            f[k - 1:] *= 1e-250
            nxt = f[k + 1] + (2.0 * k / tau) * f[k]
            rescales += 1
        f[k - 1] = nxt
    total = f[0] + 2.0 * float(np.sum(f[1:start + 1]))
    return f[:k_max + 1] / total, rescales


_DOMAIN_SLACK = 1e-12


def series_sum(coefficients, terms):
    """The last of :func:`cheb_partial_sums`: the whole series, summed term by term.

    The summation the true-order scan runs, one coefficient at a time,
    so it shares no loop with ``combine``. Like ``combine``, it adds
    every column it is given, zero coefficients included.
    """
    for y in cheb_partial_sums(coefficients, terms):
        pass
    return y


def force_combine_helper(monkeypatch):
    """Make ``combine`` hand its additions to a helper thread on any run, any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(chebyshev, "_OVERLAP_MIN_SCALES", 1)
    monkeypatch.setattr(chebyshev, "_OVERLAP_MIN_LENGTH", 1)


def eval_scalar(tau_eff: float, order: int, lam):
    """The order-``order`` truncation of ``exp(-tau_eff * lam)`` at points of [0, 2].

    Runs the package's recurrence and series sum with the operator
    replaced by scalars; returns a float for a scalar ``lam``.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam < -_DOMAIN_SLACK) or np.any(lam > 2.0 + _DOMAIN_SLACK):
        raise ValueError("lambda outside the rescaled spectral interval [0, 2]")
    p = series_sum(cheb_coefficients(tau_eff, order),
                   cheb_terms(lambda v: lam * v, np.ones_like(lam)))
    return p if lam.ndim else float(p)


def same_operator(a: SparseSymMatrix, b: SparseSymMatrix) -> bool:
    """Whether two operators hold the same CSR arrays, bit for bit."""
    return a.n == b.n and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((a.row_ptr, b.row_ptr), (a.col_idx, b.col_idx), (a.values, b.values)))


_SIMPSON_PANELS = 20000


def coeff_integral(k: int, tau: float) -> float:
    """Chebyshev coefficient via direct quadrature.

    Composite Simpson on ``(2/pi) * cos(k t) * exp(-tau (cos t + 1))``
    over ``[0, pi]`` with a fixed panel count. Slow but entirely
    independent of the Bessel route.
    """
    k = int(k)
    if k < 0:
        raise ValueError("k must be non-negative")
    tau = float(tau)
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    theta = np.linspace(0.0, np.pi, _SIMPSON_PANELS + 1)
    f = np.cos(k * theta) * np.exp(-tau * (np.cos(theta) + 1.0))
    w = np.ones(_SIMPSON_PANELS + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = np.pi / _SIMPSON_PANELS
    return float((2.0 / np.pi) * (h / 3.0) * (w @ f))


def certified_tail(order: int, tau_eff: float) -> float:
    """The tail family's certified sup gap at one order, from the library's summed tail."""
    return math.exp(0.5 * _log_tail_sq(float(tau_eff))(order))


def reference_csr_check(n, row_ptr, col_idx, values):
    """Raise the ValueError ``SparseSymMatrix`` raises for these arrays, if any.

    Increasing columns are checked with a row-boundary mask, and symmetry
    by a lexsort into transpose order.
    """
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
        if np.any(np.isnan(values) | np.isinf(values)):
            raise ValueError("non-finite entries are not allowed")
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(row_ptr))
    order = np.lexsort((rows, col_idx))
    if not (np.array_equal(col_idx[order], rows) and np.array_equal(rows[order], col_idx)
            and np.array_equal(values[order], values)):
        raise ValueError("matrix is not symmetric")


def dense_diffusion(dense_l: np.ndarray, x: np.ndarray, tau: float) -> np.ndarray:
    """Reference exp(-tau L) x via numpy's eigensolver, not ours."""
    lam, u = np.linalg.eigh(dense_l)
    return u @ (np.exp(-tau * lam) * (u.T @ x))


# ---------------------------------------------------------------------------
# Line-by-line references for the bulk graph reader and the array assembly:
# the loops chebheat used before both were vectorized, kept verbatim so the
# array code can be held to the same results, bytes and errors.
_N_TOKEN = re.compile(r"(?:^|\s)n=(\d+)(?:\s|$)")


def reference_parse_edge_list(path, lines):
    edges = []
    declared_n = None
    max_idx = -1
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _N_TOKEN.search(line[1:])
            if m and declared_n is None:
                declared_n = int(m.group(1))
            continue
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
        max_idx = max(max_idx, i, j)
        edges.append((i, j, w))
    n = declared_n if declared_n is not None else max_idx + 1
    if n < 1:
        raise ParseError(path, 1, "file declares no nodes")
    if max_idx >= n:
        raise ParseError(path, 1, f"node index {max_idx} exceeds declared n={n}")
    return edges, n


def reference_parse_matrix_market(path, lines):
    it = iter(enumerate(lines, start=1))
    try:
        line_no, header = next(it)
    except StopIteration:
        raise ParseError(path, 1, "empty file") from None
    fields = header.strip().lower().split()
    if (
        len(fields) < 5
        or fields[0] != "%%matrixmarket"
        or fields[1] != "matrix"
        or fields[2] != "coordinate"
    ):
        raise ParseError(path, line_no, "expected '%%MatrixMarket matrix coordinate ...' header")
    if fields[3] not in ("real", "integer", "pattern"):
        raise ParseError(path, line_no, f"unsupported field type {fields[3]!r}")
    if fields[4] != "symmetric":
        raise ParseError(path, line_no, "only symmetric matrices describe graphs here")
    pattern = fields[3] == "pattern"
    dims = None
    edges = []
    for line_no, raw in it:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if dims is None:
            if len(parts) != 3:
                raise ParseError(path, line_no, "expected 'rows cols nnz' size line")
            try:
                r, c, nnz = (int(p) for p in parts)
            except ValueError:
                raise ParseError(path, line_no, f"could not parse size line {line!r}") from None
            if r != c:
                raise ParseError(path, line_no, f"matrix must be square, got {r}x{c}")
            dims, size_line_no = r, line_no
            continue
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
        edges.append((i, j, w))
    if dims is None:
        raise ParseError(path, 1, "missing size line")
    if len(edges) != nnz:
        raise ParseError(path, size_line_no,
                         f"size line declares {nnz} entries, file holds {len(edges)}")
    return edges, dims


def reference_load_graph(path):
    """(edges, n) of a graph file, read line by line with the format sniffed."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    first = next((raw.strip() for raw in lines if raw.strip()), "")
    if first.lower().startswith("%%matrixmarket"):
        return reference_parse_matrix_market(path, lines)
    return reference_parse_edge_list(path, lines)


def reference_laplacian(edges, n, kind="combinatorial"):
    """Laplacian assembled edge by edge, with add.at degrees and a lexsort."""
    ii, jj, ww = [], [], []
    for edge in edges:
        i, j, w = edge if len(edge) == 3 else (*edge, 1.0)
        i, j, w = int(i), int(j), float(w)
        ii.append(min(i, j))
        jj.append(max(i, j))
        ww.append(w)
    lo = np.asarray(ii, dtype=np.int64)
    hi = np.asarray(jj, dtype=np.int64)
    w = np.asarray(ww, dtype=np.float64)
    uniq, inverse = np.unique(lo * n + hi, return_inverse=True)
    w = np.bincount(inverse, weights=w, minlength=uniq.size)
    lo, hi = uniq // n, uniq % n
    deg = np.zeros(n)
    np.add.at(deg, lo, w)
    np.add.at(deg, hi, w)
    if kind == "normalized":
        off = -w / np.sqrt(deg[lo] * deg[hi])
        diag_idx = np.arange(n, dtype=np.int64)
        diag_vals = np.ones(n)
    else:
        off = -w
        diag_idx = np.nonzero(deg > 0.0)[0].astype(np.int64)
        diag_vals = deg[diag_idx]
    rows = np.concatenate([lo, hi, diag_idx])
    cols = np.concatenate([hi, lo, diag_idx])
    vals = np.concatenate([off, off, diag_vals])
    order = np.lexsort((cols, rows))
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_ptr[1:])
    return SparseSymMatrix(n, row_ptr, cols[order], vals[order])


def reference_save_edge_list(path, edges, n, comment=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={int(n)}\n")
        if comment:
            fh.write(f"# {comment}\n")
        for edge in edges:
            if len(edge) == 2:
                i, j = edge
                w = 1.0
            else:
                i, j, w = edge
            fh.write(f"{int(i)} {int(j)} {float(w):.17g}\n")


def reference_load_signal(source):
    """Values of a one-value-per-line signal file, read line by line."""
    values = []
    with open(source, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ParseError(source, line_no, f"not a number: {line!r}") from None
    if not values:
        raise ParseError(source, 1, "signal file holds no values")
    return values


# ---------------------------------------------------------------------------
# min_order by a linear scan from order 0, one public log_bound_value call
# per order. An order at which log_bound_value rejects the bound is not
# certified; the scan does not restate where the bound holds. A tail kind
# at a positive scale is scanned on one Bessel vector, through the values
# min_order compares, rather than one vector per order.
def reference_min_order(kind, tau_eff, tol, ratio=None, cap=ORDER_CAP):
    kind = BoundKind(kind)
    tau_eff = float(tau_eff)
    if tau_eff < 0.0:
        raise ValueError("tau_eff must be non-negative")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    log_tol = math.log(tol)
    value = functools.partial(log_bound_value, kind, tau_eff=tau_eff, ratio=ratio)
    if kind in _TAIL_KINDS and tau_eff / 2.0 != 0.0:
        value = _log_bound_of(kind, tau_eff, ratio)
    for order in range(cap + 1):
        try:
            if value(order) <= log_tol:
                return order
        except ValueError:
            try:  # every kind accepts a ratio of 1, so only the order can fail here
                log_bound_value(kind, order, tau_eff, 1.0)
            except ValueError:
                continue  # the bound does not hold at this order
            raise  # it holds, but not with this ratio
    raise OrderCapError(
        f"no order up to {cap} certifies tol={tol} for {kind.value} at tau_eff={tau_eff}"
    )


# ---------------------------------------------------------------------------
# true_min_order as one scale's loop over the orders: the recurrence and
# the series rerun from order 0 for each scale, and each order's error
# taken by its own dot product. The shared-basis scanner must return its
# orders and raise its errors.
def _reference_growing_coefficients(tau_eff, cap):
    done, size = 0, min(cap, 64)
    while True:
        yield from cheb_coefficients(tau_eff, size)[done:]
        if size == cap:
            return
        done, size = size + 1, min(cap, 2 * size)


def reference_true_min_order(op, signal, tau, tol, lambda_max=None, cap=ORDER_CAP):
    from chebheat.diffusion import _resolve_lambda
    from chebheat.graphs import _signal
    from chebheat.oracle import dense_spectrum

    tau = float(tau)
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x = _signal(signal)
    spec = dense_spectrum(op)
    if x.shape != spec.eigenvalues.shape:
        raise ValueError("signal length does not match operator size")
    lam_hat, _ = _resolve_lambda(op, lambda_max)
    xhat = spec.vectors.T @ x
    target = np.exp(-tau * spec.eigenvalues) * xhat
    denom = float(target @ target)
    if denom == 0.0:
        raise ValueError("diffused signal underflowed to zero; relative error undefined")
    scale = 2.0 / lam_hat if lam_hat > 0.0 else 0.0
    d = np.clip(scale * spec.eigenvalues, 0.0, 2.0)
    sums = cheb_partial_sums(_reference_growing_coefficients(lam_hat * tau / 2.0, cap),
                             cheb_terms(lambda v: d * v, xhat))
    for order, approx in enumerate(sums):
        diff = target - approx
        if float(diff @ diff) <= tol * denom:
            return order
    raise OrderCapError(
        f"no order up to {cap} reaches measured tol={tol} at tau={tau}"
    )
