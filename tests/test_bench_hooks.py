"""The benchmark's hooks still find every chebheat name they wrap.

``perfbench/tracing.py`` replaces functions at module attributes by name;
a rename or deletion on the program side makes ``install`` raise, which
these tests turn into a tier-1 failure instead of a broken benchmark.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

import chebheat.diffusion  # noqa: E402
from chebheat.diffusion import expm_multiscale  # noqa: E402
from chebheat.graphs import SparseSymMatrix, build_laplacian  # noqa: E402


def _current(entries):
    return [getattr(*tracing._owner(module, attr)) for module, attr, _ in entries]


def test_tracer_installs_on_every_name_and_uninstalls():
    entries = tracing.SPANNED + tracing.COUNTED
    before = _current(entries)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(now is not old for now, old in zip(_current(entries), before))
        op = build_laplacian([(0, 1), (1, 2), (2, 3)], 4)
        # through the module attribute, as the benchmark's workloads call it
        chebheat.diffusion.expm_multiscale(op, np.array([1.0, 0.0, 0.0, 0.0]), [0.1, 1.0],
                                           tol=1e-6)
    finally:
        tracer.uninstall()
    assert all(now is old for now, old in zip(_current(entries), before))
    summary = tracer.summary()
    for name in ("diffusion.expm_multiscale", "diffusion.make_plan",
                 "chebyshev.build_basis", "chebyshev.combine", "graphs.matvec"):
        assert summary[name]["calls"] > 0, name
    # one pass over the basis recombines both scales
    assert summary["chebyshev.combine"]["calls"] == 1


def test_matvec_counter_counts_and_uninstalls():
    original = SparseSymMatrix.matvec
    op = build_laplacian([(0, 1), (1, 2)], 3)
    x = np.array([1.0, 0.0, 0.0])
    counter = tracing.MatvecCounter()
    counter.install()
    try:
        # one of the paper's kinds, whose plan runs power iteration
        results = expm_multiscale(op, x, [0.5, 2.0], tol=1e-8, kind="new-specific")
        first = counter.count
        repeat = expm_multiscale(op, x, [0.5, 2.0], tol=1e-8, kind="new-specific")
    finally:
        counter.uninstall()
    assert SparseSymMatrix.matvec is original
    # power iteration plus one matvec per order of the shared basis
    rep = results[0][1]
    assert rep.setup_matvecs > 0
    assert first == rep.setup_matvecs + rep.order
    # the same operator again: its estimate is memoized, only the basis is paid
    rep = repeat[0][1]
    assert rep.setup_matvecs == 0
    assert counter.count - first == rep.order
