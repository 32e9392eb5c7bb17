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

Run from the repository root of any checkout, which it imports from::

    python tools/bits_digest.py > digest.txt

and compare two checkouts with ``diff``. It prints ``case sha256`` lines.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chebheat import (BoundKind, NumericalError, build_laplacian, erdos_renyi,  # noqa: E402
                      expm_multiply, expm_multiscale)
from chebheat.cli import bound_table_data  # noqa: E402

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


def main() -> int:
    for case, args in TABLES.items():
        print(f"{case} {_table_digest(*args)}", flush=True)
    for graph, op in _graphs().items():
        for signal, x in _signals(op.n).items():
            for kind in KINDS:
                print(f"{graph}/{signal}/{kind} {_digest(op, x, kind)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
