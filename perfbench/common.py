"""Paths, process environment and the timing reference of the benchmark.

Every benchmark process (the workload process and its set-up children)
imports this module first, before numpy, so that BLAS and OpenMP are
pinned to one thread before any of them starts.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads(env=None) -> dict:
    """Set every BLAS/OpenMP thread count in ``env`` (default: this process) to 1."""
    env = os.environ if env is None else env
    for var in _THREAD_VARS:
        env[var] = "1"
    return env


def use_source_tree() -> None:
    """Make ``import chebheat`` load this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "chebheat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no chebheat sources under {SRC}")
    sys.path.insert(0, str(SRC))


def check_source_tree(module) -> None:
    """Exit non-zero if ``module`` was not loaded from this checkout's ``src/``."""
    if SRC not in Path(module.__file__).resolve().parents:
        sys.exit(f"perfbench: chebheat was imported from {module.__file__}, not {SRC}")


# The timing reference: a fixed computation that calls no chebheat code.
# Each timed job or set-up is multiplied by the reference's nominal time
# (its median on the machine the figures in README.md come from) over the
# reference time measured next to it. Machine-wide slow-downs (neighbours
# on the same host, frequency changes) stretch both and cancel; a slower
# chebheat stretches only the job. Neighbours slow memory-bound,
# interpreter-bound and small-array code by different amounts, so the
# "array" reference has a part of each kind; the pure-Python Jacobi
# oracle is tracked better by Jacobi sweeps. README.md ("Steady timings")
# records the comparisons that chose them.

_ref_state = {}
np = None  # numpy, imported on first use: after the thread pins and the timed set-up


def _ref_stream() -> None:
    # passes over a 2 MiB array, like a matvec or a recombination
    buf = _ref_state["buf"]
    for _ in range(200):
        np.multiply(buf, 1.0000001, out=buf)


def _ref_python() -> None:
    # an interpreter loop, like parsing, formatting and graph generation
    acc = 0
    for i in range(150_000):
        acc += (i * i) % 7


def _ref_numpy_small() -> None:
    # many calls on a small array, like per-scale work
    v = _ref_state["small"].copy()
    for _ in range(12_000):
        v = v * 0.5 + 1.0


def _ref_jacobi() -> None:
    # one cyclic Jacobi sweep over a symmetric 80 x 80 matrix
    a = _ref_state["square"].copy()
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = (t if theta >= 0.0 else -t) * c
            row_p, row_q = a[p].copy(), a[q].copy()
            a[p] = c * row_p - s * row_q
            a[q] = s * row_p + c * row_q
            a[:, p] = a[p]
            a[:, q] = a[q]


# reference name -> (parts, nominal seconds)
REFERENCES = {
    "array": ((_ref_stream, _ref_python, _ref_numpy_small), 0.060),
    "jacobi": ((_ref_jacobi,) * 3, 0.120),
}


def reference_seconds(name: str) -> float:
    """Wall time of one run of the named timing reference."""
    global np
    if np is None:
        import numpy

        np = numpy
        _ref_state["small"] = np.arange(64.0)
        _ref_state["buf"] = np.ones(1 << 18)  # 2 MiB, allocated once
        square = np.random.default_rng(0).standard_normal((80, 80))
        _ref_state["square"] = square + square.T
    parts = REFERENCES[name][0]
    if name not in _ref_state:  # the first run pays for cold code
        _ref_state[name] = True
        for part in parts:
            part()
    t0 = time.perf_counter()
    for part in parts:
        part()
    return time.perf_counter() - t0
