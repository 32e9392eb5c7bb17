"""Independent checks of chebheat's outputs.

Nothing in this module imports chebheat. Every reference is computed
with numpy and scipy, from the same input files the program read or
from closed forms: the lattice through its DCT eigenbasis, the ER graphs
through scipy's ``expm_multiply`` and LAPACK's ``eigh``. Each check
returns a list of failure messages; an empty list means the output
passed.

The allowed squared-error slack for rounding is derived in README.md
("Rounding slack") from the truncation order K and the float64 unit
roundoff; nothing in it is fitted to observed errors.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import fft, sparse, special
from scipy.sparse.linalg import expm_multiply

UNIT_ROUNDOFF = 2.0 ** -53

# scipy's expm_multiply uses at most 55 Taylor terms per step, and its
# partial sums stay below e^theta_55 < e^10 times the input in norm
_SCIPY_M_MAX = 55
_SCIPY_GROWTH = math.exp(10.0)


def recurrence_error_coeff(order: int, row_nnz: int) -> float:
    """C with ||computed - exact truncation|| <= C * u * ||x|| for the recurrence.

    Each matvec row sums ``row_nnz`` products, each basis step adds two
    more roundings, and an error made at step j reaches step k through
    U_{k-j}, which is at most k - j + 1 on [-1, 1]. Summed over steps and
    weighted by coefficients whose magnitudes sum to 1, that gives
    (K + 1)^2 * (row_nnz + 4).
    """
    return (order + 1) ** 2 * (row_nnz + 4.0)


def dct_error_coeff(n: int) -> float:
    """Error coefficient of an orthonormal DCT there and back (n points)."""
    return 10.0 * math.log2(max(n, 2))


def scipy_error_coeff(tau_norm1: float, row_nnz: int) -> float:
    """Error coefficient of scipy's expm_multiply on a matrix of 1-norm ``tau_norm1``."""
    steps = _SCIPY_M_MAX * (math.ceil(tau_norm1) + 1)
    return steps * (row_nnz + 2.0) * _SCIPY_GROWTH


def squared_slack(coeff: float, x_norm: float, w_norm: float) -> float:
    """Squared relative error that rounding alone can explain."""
    return (coeff * UNIT_ROUNDOFF * x_norm / w_norm) ** 2


def rel_sq_error(y: np.ndarray, w: np.ndarray) -> float:
    d = y - w
    return float(d @ d) / float(w @ w)


# ---------------------------------------------------------------- lattice


def lattice_lambda_max(side: int) -> float:
    """Largest combinatorial-Laplacian eigenvalue of a side x side lattice."""
    return 4.0 + 4.0 * math.cos(math.pi / side)


def lattice_heat(x: np.ndarray, side: int, taus) -> list[np.ndarray]:
    """exp(-tau L) x on a side x side lattice, node id = row * side + col.

    The path Laplacian's eigenvectors are the DCT-II basis with
    eigenvalues 2 - 2 cos(pi k / side); the lattice Laplacian is their
    Kronecker sum.
    """
    mu = 2.0 - 2.0 * np.cos(np.pi * np.arange(side) / side)
    lam = mu[:, None] + mu[None, :]
    xh = fft.dctn(x.reshape(side, side), type=2, norm="ortho")
    return [fft.idctn(np.exp(-tau * lam) * xh, type=2, norm="ortho").ravel() for tau in taus]


def check_lattice_job(x, outputs, taus, bounds, lambda_hat, order, side) -> list[str]:
    """Compare every scale with the DCT solution and check the lambda estimate."""
    fails = []
    floor = lattice_lambda_max(side)
    if not lambda_hat >= floor:
        fails.append(f"lambda_max estimate {lambda_hat!r} below the true {floor!r}")
    x_norm = float(np.linalg.norm(x))
    coeff = recurrence_error_coeff(order, 5) + dct_error_coeff(x.size)
    for y, w, bound, tau in zip(outputs, lattice_heat(x, side, taus), bounds, taus):
        err = rel_sq_error(y, w)
        slack = squared_slack(coeff, x_norm, float(np.linalg.norm(w)))
        if not err <= bound + slack:
            fails.append(f"tau={tau!r}: squared relative error {err:.3e} exceeds "
                         f"bound {bound:.3e} + rounding slack {slack:.3e}")
    return fails


def check_bitwise(a: np.ndarray, b: np.ndarray, what: str) -> list[str]:
    if a.shape == b.shape and a.tobytes() == b.tobytes():
        return []
    return [f"{what}: outputs differ bitwise"]


def check_matvecs(counted: int, order: int, setup: int) -> list[str]:
    if counted == order + setup:
        return []
    return [f"counted {counted} matvecs, the program reports K={order} + setup {setup}"]


# ---------------------------------------------------------- edge lists, CLI


def read_edge_list(path):
    """(n, i, j, w) from an ``i j w`` edge list with a ``# n=`` header."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    n = None
    body = []
    for line in lines:
        if line.startswith("#"):
            for tok in line[1:].split():
                if n is None and tok.startswith("n="):
                    n = int(tok[2:])
        elif line.strip():
            body.append(line)
    data = np.array(" ".join(body).split(), dtype=np.float64).reshape(-1, 3)
    i = data[:, 0].astype(np.int64)
    j = data[:, 1].astype(np.int64)
    if n is None:
        n = int(max(i.max(), j.max())) + 1
    return n, i, j, data[:, 2]


def normalized_laplacian(n, i, j, w):
    """scipy CSR of I - D^-1/2 A D^-1/2 and the degree vector."""
    adj = sparse.coo_array((np.concatenate([w, w]), (np.concatenate([i, j]),
                                                     np.concatenate([j, i]))),
                           shape=(n, n)).tocsr()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    s = sparse.diags_array(1.0 / np.sqrt(deg))
    lap = (sparse.eye_array(n, format="csr") - s @ adj @ s).tocsr()
    return lap, deg


def read_diffuse_csv(path):
    """Metadata dict, scale list and (n, m) output columns of a ``diffuse`` CSV."""
    meta = {}
    with open(path, encoding="utf-8") as fh:
        header = None
        skip = 0
        for line in fh:
            skip += 1
            if line.startswith("#"):
                for tok in line[1:].split():
                    key, sep, val = tok.partition("=")
                    if sep:
                        meta[key] = val
            else:
                header = line.strip().split(",")
                break
    if header is None or header[0] != "node":
        raise ValueError(f"{path}: no 'node,...' header row")
    taus = [float(h.partition("=")[2]) for h in header[1:]]
    data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    return meta, taus, data


def check_diffuse_csv(csv_path, edge_path, x, expected_taus, counted_matvecs,
                      timings=None) -> list[str]:
    """Check a normalized-Laplacian ``diffuse`` CSV against scipy's expm_multiply.

    Every column must be within the reported bound (plus rounding slack)
    of scipy's solution, the heat flow must conserve <d^1/2, x> within
    the same bound, and the counted matvecs must match the header. With
    ``timings`` (a dict), scipy's total time and the largest relative
    2-norm difference are stored in it.
    """
    meta, taus, data = read_diffuse_csv(csv_path)
    n, i, j, w = read_edge_list(edge_path)
    fails = []
    if meta.get("laplacian") != "normalized" or int(meta.get("n", -1)) != n:
        return [f"{csv_path}: header {meta} does not describe the normalized graph of {edge_path}"]
    if data.shape != (n, len(taus) + 1) or not np.array_equal(data[:, 0], np.arange(n)):
        return [f"{csv_path}: expected {n} rows of node + {len(taus)} columns"]
    if len(taus) != len(expected_taus) or not np.allclose(taus, expected_taus, rtol=1e-12, atol=0):
        fails.append(f"{csv_path}: scales {taus} differ from the requested grid")
    order = int(meta["K"])
    bound = float(meta["bound"])
    fails += check_matvecs(counted_matvecs, int(meta["matvecs"]), int(meta["setup_matvecs"]))
    if int(meta["matvecs"]) != order:
        fails.append(f"{csv_path}: matvecs={meta['matvecs']} differs from K={order}")
    lap, deg = normalized_laplacian(n, i, j, w)
    row_nnz = int(np.diff(lap.indptr).max())
    x_norm = float(np.linalg.norm(x))
    sqrt_d = np.sqrt(deg)
    mass_in = float(sqrt_d @ x)
    lap_norm1 = float(abs(lap).sum(axis=0).max())
    dot_coeff = recurrence_error_coeff(order, row_nnz) + 2.0 * n
    worst = 0.0
    scipy_s = 0.0
    for col, tau in enumerate(taus):
        y = data[:, col + 1]
        t0 = time.perf_counter()
        ref = expm_multiply(-tau * lap, x, traceA=-tau * n)
        scipy_s += time.perf_counter() - t0
        ref_norm = float(np.linalg.norm(ref))
        coeff = recurrence_error_coeff(order, row_nnz) + scipy_error_coeff(tau * lap_norm1, row_nnz)
        err = rel_sq_error(y, ref)
        worst = max(worst, math.sqrt(err))
        slack = squared_slack(coeff, x_norm, ref_norm)
        if not err <= bound + slack:
            fails.append(f"{csv_path} tau={tau!r}: squared relative error {err:.3e} exceeds "
                         f"bound {bound:.3e} + slack {slack:.3e}")
        # the kernel direction d^1/2 is invariant under the heat flow
        y_norm = float(np.linalg.norm(y))
        allowed = float(np.linalg.norm(sqrt_d)) * (
            math.sqrt(bound) * y_norm / max(1.0 - math.sqrt(bound), 1e-300)
            + dot_coeff * UNIT_ROUNDOFF * x_norm)
        drift = abs(float(sqrt_d @ y) - mass_in)
        if not drift <= allowed:
            fails.append(f"{csv_path} tau={tau!r}: <d^1/2, y> drifted by {drift:.3e} "
                         f"(allowed {allowed:.3e})")
    if timings is not None:
        timings["scipy_s"] = scipy_s
        timings["rel_err"] = worst
    return fails


# ------------------------------------------------------------- bound table


def er_edges(n: int, p: float, seed: int):
    """G(n, p) edges drawn with the documented rule of ``gen-graph``/``er:``.

    Row i draws n - 1 - i uniforms from PCG64(seed) and links i to
    i + 1 + k wherever draw k is below p.
    """
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for i in range(n - 1):
        hits = np.nonzero(rng.random(n - 1 - i) < p)[0]
        rows.append(np.full(hits.size, i, dtype=np.int64))
        cols.append(i + 1 + hits)
    return np.concatenate(rows), np.concatenate(cols)


def dense_combinatorial(n: int, i, j) -> np.ndarray:
    lap = np.zeros((n, n))
    lap[i, j] = -1.0
    lap[j, i] = -1.0
    lap[np.arange(n), np.arange(n)] = -lap.sum(axis=1)
    return lap


# The spectral-radius estimates a pipeline may use, as multiples of
# LAPACK's largest eigenvalue: from the exact value up to 2% above it,
# every 0.5%. Near K = 77 a 1% change moves the measured order by about
# 2, so neighbouring samples differ by about one order.
LAMBDA_MARGINS = (1.0, 1.005, 1.01, 1.015, 1.02)


def measured_min_order(lam, vecs, x, tau, tol, lambda_hat, cap=20000) -> int:
    """Smallest K whose truncated Chebyshev series meets ``tol`` on the dense spectrum.

    The basis is T_k(t) = cos(k arccos t) on the rescaled spectrum and
    the coefficients come from scipy's ``ive``, so no part of the
    program's recurrence or Bessel code is involved.
    """
    xh = vecs.T @ x
    target = np.exp(-tau * lam) * xh
    denom = float(target @ target)
    theta = np.arccos(np.clip(2.0 * lam / lambda_hat - 1.0, -1.0, 1.0))
    tau_eff = lambda_hat * tau / 2.0
    kmax = 64
    while True:
        k = np.arange(kmax + 1)
        c = 2.0 * special.ive(k, tau_eff) * np.where(k % 2 == 0, 1.0, -1.0)
        c[0] *= 0.5
        terms = (c[:, None] * np.cos(k[:, None] * theta[None, :])) * xh[None, :]
        resid = target[None, :] - np.cumsum(terms, axis=0)
        errs = np.einsum("ij,ij->i", resid, resid)
        hit = np.nonzero(errs <= tol * denom)[0]
        if hit.size:
            return int(hit[0])
        if kmax >= cap:
            raise ValueError(f"no order up to {cap} reaches tol={tol} at tau={tau}")
        kmax = min(cap, 2 * kmax)


def true_order_range(n, p, seed, trials, taus, tol) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), each (trials, m): measured minimum orders over ``LAMBDA_MARGINS``.

    Graphs and signals are drawn as ``bound-table`` draws them: trial t
    uses the graph seed ``seed + t`` and the standard-normal signal seed
    ``seed + t + 10000``. The measured order moves with the spectral-radius
    estimate it is computed with, and how the program estimates it is its
    own business, so the order is computed for every admissible estimate
    and ``lo``/``hi`` hold its least and greatest value.
    """
    lo = np.zeros((trials, len(taus)), dtype=np.int64)
    hi = np.zeros((trials, len(taus)), dtype=np.int64)
    for t in range(trials):
        i, j = er_edges(n, p, seed + t)
        lam, vecs = np.linalg.eigh(dense_combinatorial(n, i, j))
        x = np.random.default_rng(seed + t + 10000).standard_normal(n)
        orders = np.array([[measured_min_order(lam, vecs, x, tau, tol, margin * lam[-1])
                            for tau in taus] for margin in LAMBDA_MARGINS])
        lo[t] = orders.min(axis=0)
        hi[t] = orders.max(axis=0)
    return lo, hi


def read_bound_table(path):
    """Column name -> float array of a ``bound-table`` CSV."""
    with open(path, encoding="utf-8") as fh:
        rows = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    names = rows[0].split(",")
    values = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    return {name: values[:, c] for c, name in enumerate(names)}


_QUANTILES = (("q25", 25.0), ("median", 50.0), ("q75", 75.0))
_CERTIFIED = ("new_generic", "new_specific", "base_generic", "base_specific")


def check_bound_table(path, true_lo, true_hi, expected_taus) -> list[str]:
    """k_true quantiles within the recomputed range, widened by one; certified >= k_true.

    ``true_lo``/``true_hi`` come from :func:`true_order_range`. A quantile
    is monotone in every trial's order, so the program's quantile lies
    between the quantiles of ``lo`` and ``hi`` whenever its estimate is
    admissible; the extra order on each side covers the 0.5% steps
    between sampled estimates.
    """
    table = read_bound_table(path)
    fails = []
    taus = table.get("tau")
    if taus is None or len(taus) != len(expected_taus) \
            or not np.allclose(taus, expected_taus, rtol=1e-12, atol=0):
        return [f"{path}: scale column differs from the requested grid"]
    for label, q in _QUANTILES:
        low = np.percentile(true_lo, q, axis=0) - 1.0
        high = np.percentile(true_hi, q, axis=0) + 1.0
        theirs = table.get(f"k_true_{label}")
        if theirs is None:
            return [f"{path}: no k_true_{label} column"]
        for col in np.nonzero(~((low <= theirs) & (theirs <= high)))[0]:
            fails.append(f"{path} tau={taus[col]:.6g}: k_true_{label}={theirs[col]:g}, "
                         f"recomputed {low[col] + 1:g} to {high[col] - 1:g}")
        for kind in _CERTIFIED:
            cert = table.get(f"k_{kind}_{label}")
            if cert is None:
                fails.append(f"{path}: no k_{kind}_{label} column")
                continue
            for col in np.nonzero(~(cert >= theirs))[0]:
                fails.append(f"{path} tau={taus[col]:.6g}: certified k_{kind}_{label}="
                             f"{cert[col]:g} below k_true {theirs[col]:g}")
    return fails
