"""Print one sha256 per diffusion and bound-table case, to check that a change keeps the same bits.

Each case is a graph, a signal and a kind. Its digest covers, in order,
every output and the ``repr`` of every report of one
``expm_multiscale`` run at 12 scales (0 and 11 from 1e-2 to 100, tol
1e-8) and of ``expm_multiply`` at ``tau`` 0 and 2; a call that raises
contributes its error's type and message instead. The graphs are a
64x64 lattice (4096 nodes, so a run of 8 scales or more adds on a helper
thread where two CPUs are free) and ``er:300:0.03:1``, combinatorial and
normalized. The signals are a Dirac, a standard normal, an alternating
+-1 that sums to exactly zero, and one that holds ``-0.0`` beside
positive entries. Every kind runs, ``auto`` first.

A bound-table case digests every array ``bound_table_data`` returns
(scales, effective scales, each kind's orders, the measured orders and
the energy ratios), or its error's type and message, at the 25 scales
of ``log:1e-2:1e2:25``, with 0 in front for the ``n=60`` case. The cases
are the benchmark's first job (``n=100``, ``p=0.1``, seed 1000, 4
trials), ``n=60``, ``p=0.2`` at tol 1e-10, and seed 1351, whose power
estimate lies below the top eigenvalue.

A CSR case digests the bytes of ``row_ptr``, ``col_idx`` and ``values``
of one ``build_laplacian`` call, or its error's type and message. The
graphs are the file ``chebheat gen-graph --n 20000 --p 0.001 --seed 1``
writes, a shuffled copy of its edges with every other one reversed and
a tenth of them repeated at weight 0.5, the 200x200 lattice in the
(hi, lo) orientation of the benchmark's Matrix Market file (its operator
keeps padded planes), the path 0-1-2-3 at weights 1e-200, 1e-160 and
1e200 (normalized), and two edges of weight 1e308 at one node.

Run from the repository root of any checkout, which it imports from::

    python tools/bits_digest.py > digest.txt

and compare two checkouts with ``diff``. It prints ``case sha256`` lines.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chebheat import (BoundKind, NumericalError, build_laplacian, erdos_renyi,  # noqa: E402
                      expm_multiply, expm_multiscale, load_graph)
from chebheat.cli import bound_table_data, main as cli_main  # noqa: E402

SCALES = [0.0] + [float(t) for t in np.logspace(-2.0, 2.0, 11)]
SINGLE = (0.0, 2.0)
TOL = 1e-8
KINDS = ["auto"] + [kind.value for kind in BoundKind]
TABLE_SCALES = [float(t) for t in np.logspace(-2.0, 2.0, 25)]
# case: n, p, trials, scales, tol, seed
TABLES = {"bound-table/n100-p0.1-seed1000": (100, 0.1, 4, TABLE_SCALES, 1e-5, 1000),
          "bound-table/n60-p0.2-tol1e-10": (60, 0.2, 3, [0.0] + TABLE_SCALES, 1e-10, 3),
          "bound-table/n100-p0.1-seed1351": (100, 0.1, 1, TABLE_SCALES, 1e-5, 1351)}


def _lattice(side):
    idx = np.arange(side * side).reshape(side, side)
    edges = np.concatenate([np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1),
                            np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)])
    return edges, side * side


def _graphs():
    lattice, n = _lattice(64)
    er = erdos_renyi(300, 0.03, seed=1)
    return {"lattice-64x64": build_laplacian(lattice, n),
            "er-300-combinatorial": build_laplacian(er, 300),
            "er-300-normalized": build_laplacian(er, 300, kind="normalized")}


def _signals(n):
    negative_zero = np.zeros(n)
    negative_zero[::5] = -0.0
    negative_zero[1::5] = 1.0
    negative_zero[3::7] = 0.25
    return {"dirac": np.eye(1, n, n // 3)[0],
            "normal": np.random.default_rng(7).standard_normal(n),
            "zero-sum": np.where(np.arange(n) % 2 == 0, 1.0, -1.0),
            "negative-zero": negative_zero}


def _digest(op, x, kind) -> str:
    h = hashlib.sha256()
    calls = [lambda: expm_multiscale(op, x, SCALES, tol=TOL, kind=kind)]
    calls += [lambda tau=tau: [expm_multiply(op, x, tau, tol=TOL, kind=kind)] for tau in SINGLE]
    for call in calls:
        try:
            for y, rep in call():
                h.update(y.tobytes())
                h.update(repr(rep).encode())
        except (ValueError, NumericalError) as exc:
            h.update(f"{type(exc).__name__}: {exc}".encode())
    return h.hexdigest()


def _table_digest(n, p, trials, taus, tol, seed) -> str:
    h = hashlib.sha256()
    try:
        data = bound_table_data(n, p, trials, taus, tol, seed, with_true=True)
    except (ValueError, NumericalError) as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
    else:
        for a in ([np.array(data["taus"]), data["tau_effs"]] + list(data["orders"].values())
                  + [data["true"], data["ratios"]]):
            h.update(a.tobytes())
    return h.hexdigest()


def _csr_graphs():
    """Each CSR case's edges, node count and kinds."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "er.txt")
        cli_main(["gen-graph", "--n", "20000", "--p", "0.001", "--seed", "1", "--out", path])
        er, n = load_graph(path)
    rng = np.random.default_rng(5)
    shuffled = er[rng.permutation(len(er))]
    shuffled[::2, :2] = shuffled[::2, 1::-1]
    repeated = shuffled[:len(er) // 10] * [1.0, 1.0, 0.5]
    lattice, side_n = _lattice(200)
    both = ("combinatorial", "normalized")
    graphs = {"er-20000": (er, n, both),
              "er-20000-shuffled": (np.concatenate([shuffled, repeated]), n, both),
              "lattice-200x200": (lattice[:, ::-1], side_n, ("combinatorial",))}
    for w in (1e-200, 1e-160, 1e200):
        graphs[f"path-4-w{w:g}"] = ([(0, 1, w), (1, 2, w), (2, 3, w)], 4, ("normalized",))
    graphs["degree-overflow"] = ([(0, 1, 1e308), (0, 2, 1e308)], 3, both)
    return graphs


def _csr_digest(edges, n, kind) -> str:
    h = hashlib.sha256()
    try:
        op = build_laplacian(edges, n, kind=kind)
    except ValueError as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
    else:
        for a in (op.row_ptr, op.col_idx, op.values):
            h.update(a.tobytes())
    return h.hexdigest()


def main() -> int:
    for case, args in TABLES.items():
        print(f"{case} {_table_digest(*args)}", flush=True)
    for graph, op in _graphs().items():
        for signal, x in _signals(op.n).items():
            for kind in KINDS:
                print(f"{graph}/{signal}/{kind} {_digest(op, x, kind)}", flush=True)
    for graph, (edges, n, kinds) in _csr_graphs().items():
        for kind in kinds:
            print(f"csr/{graph}/{kind} {_csr_digest(edges, n, kind)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
