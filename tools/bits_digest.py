"""Print one sha256 per diffusion case, to check that a change keeps the same bits.

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

SCALES = [0.0] + [float(t) for t in np.logspace(-2.0, 2.0, 11)]
SINGLE = (0.0, 2.0)
TOL = 1e-8
KINDS = ["auto"] + [kind.value for kind in BoundKind]


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


def main() -> int:
    for graph, op in _graphs().items():
        for signal, x in _signals(op.n).items():
            for kind in KINDS:
                print(f"{graph}/{signal}/{kind} {_digest(op, x, kind)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
