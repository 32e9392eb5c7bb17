"""Each independent check accepts chebheat's real output and rejects a perturbed one.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_checks.py -q

The instances are small versions of the workloads, so the file runs in
seconds.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402

import chebheat.cli  # noqa: E402
from chebheat.diffusion import expm_multiscale, expm_multiply  # noqa: E402
from chebheat.graphs import build_laplacian  # noqa: E402

SIDE = 12
TAUS = [0.01, 0.3, 5.0]


@pytest.fixture(scope="module")
def lattice_run():
    idx = np.arange(SIDE * SIDE).reshape(SIDE, SIDE)
    edges = [(int(a), int(b)) for a, b in zip(idx[:, :-1].ravel(), idx[:, 1:].ravel())]
    edges += [(int(a), int(b)) for a, b in zip(idx[:-1, :].ravel(), idx[1:, :].ravel())]
    op = build_laplacian(edges, SIDE * SIDE)
    x = np.zeros(SIDE * SIDE)
    x[17] = 1.0
    results = expm_multiscale(op, x, TAUS, tol=1e-8)
    ys = np.stack([y for y, _ in results])
    reps = [r for _, r in results]
    return op, x, ys, reps


def _lattice_fails(x, ys, reps, lambda_hat=None):
    return checks.check_lattice_job(x, ys, TAUS, [r.bound for r in reps],
                                    reps[0].lambda_max if lambda_hat is None else lambda_hat,
                                    reps[0].order, SIDE)


def test_lattice_check_accepts_program_output(lattice_run):
    _, x, ys, reps = lattice_run
    assert _lattice_fails(x, ys, reps) == []


def test_lattice_check_rejects_perturbed_column(lattice_run):
    _, x, ys, reps = lattice_run
    bad = ys.copy()
    bad[1, 40] += 1e-4
    fails = _lattice_fails(x, bad, reps)
    assert len(fails) == 1 and "tau=0.3" in fails[0]


def test_lattice_check_rejects_understated_lambda(lattice_run):
    _, x, ys, reps = lattice_run
    fails = _lattice_fails(x, ys, reps, lambda_hat=0.999 * checks.lattice_lambda_max(SIDE))
    assert any("below the true" in f for f in fails)


def test_bitwise_check(lattice_run):
    op, x, ys, reps = lattice_run
    single, _ = expm_multiply(op, x, TAUS[-1], tol=1e-8, lambda_max=reps[0].lambda_max)
    assert checks.check_bitwise(ys[-1], single, "top scale") == []
    nudged = single.copy()
    nudged[3] = np.nextafter(nudged[3], np.inf)
    assert checks.check_bitwise(ys[-1], nudged, "top scale") != []


def test_matvec_check():
    assert checks.check_matvecs(12 + 85, 12, 85) == []
    assert checks.check_matvecs(12 + 86, 12, 85) != []


def test_rounding_slack_is_tiny_next_to_tolerances():
    # K = 214 on a 5-point stencil: the slack stays far below tol = 1e-8
    coeff = checks.recurrence_error_coeff(214, 5) + checks.dct_error_coeff(40000)
    assert checks.squared_slack(coeff, 1.0, 1.0) < 1e-18


@pytest.fixture(scope="module")
def diffuse_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("diffuse")
    graph, signal, out = work / "g.txt", work / "x.txt", work / "out.csv"
    assert chebheat.cli.main(["gen-graph", "--n", "300", "--p", "0.05", "--seed", "3",
                              "--out", str(graph)]) == 0
    x = np.round(np.random.default_rng(5).standard_normal(300) * 4096.0) / 4096.0
    signal.write_text("\n".join(repr(float(v)) for v in x) + "\n")
    counter = tracing.MatvecCounter()
    counter.install()
    try:
        rc = chebheat.cli.main(["diffuse", "--graph", str(graph), "--signal", str(signal),
                                "--laplacian", "normalized", "--scales", "log:1e-3:10:6",
                                "--tol", "1e-5", "--out", str(out)])
    finally:
        counter.uninstall()
    assert rc == 0
    taus = [float(t) for t in np.logspace(-3.0, 1.0, 6)]
    return graph, x, out, counter.count, taus


def _rewrite(src, dst, edit):
    lines = src.read_text().splitlines(keepends=True)
    dst.write_text("".join(edit(lines)))


def test_diffuse_check_accepts_program_output(diffuse_run):
    graph, x, out, matvecs, taus = diffuse_run
    timings = {}
    assert checks.check_diffuse_csv(out, graph, x, taus, matvecs, timings) == []
    assert timings["rel_err"] > 0.0 and timings["scipy_s"] > 0.0


def test_diffuse_check_rejects_perturbed_value(diffuse_run, tmp_path):
    graph, x, out, matvecs, taus = diffuse_run
    bad = tmp_path / "bad.csv"

    def edit(lines):
        row = lines[10].rstrip("\n").split(",")
        row[3] = repr(float(row[3]) + 0.05)
        lines[10] = ",".join(row) + "\n"
        return lines

    _rewrite(out, bad, edit)
    fails = checks.check_diffuse_csv(bad, graph, x, taus, matvecs)
    assert any("squared relative error" in f for f in fails)


def test_diffuse_check_rejects_mass_drift(diffuse_run, tmp_path):
    graph, x, out, matvecs, taus = diffuse_run
    meta, _, data = checks.read_diffuse_csv(out)
    n, i, j, w = checks.read_edge_list(graph)
    _, deg = checks.normalized_laplacian(n, i, j, w)
    shifted = data[:, 1] + 0.01 * np.sqrt(deg)
    bad = tmp_path / "drift.csv"

    def edit(lines):
        head = [ln for ln in lines if ln.startswith("#") or ln.startswith("node")]
        body = lines[len(head):]
        for r, line in enumerate(body):
            row = line.rstrip("\n").split(",")
            row[1] = format(shifted[r], ".17g")
            body[r] = ",".join(row) + "\n"
        return head + body

    _rewrite(out, bad, edit)
    fails = checks.check_diffuse_csv(bad, graph, x, taus, matvecs)
    assert any("<d^1/2, y> drifted" in f for f in fails)


def test_diffuse_check_rejects_understated_bound(diffuse_run, tmp_path):
    graph, x, out, matvecs, taus = diffuse_run
    bad = tmp_path / "bound.csv"

    def edit(lines):
        lines[2] = " ".join("bound=1e-300" if tok.startswith("bound=") else tok
                            for tok in lines[2].rstrip("\n").split(" ")) + "\n"
        return lines

    _rewrite(out, bad, edit)
    assert checks.check_diffuse_csv(bad, graph, x, taus, matvecs) != []


def test_diffuse_check_rejects_miscounted_matvecs(diffuse_run):
    graph, x, out, matvecs, taus = diffuse_run
    fails = checks.check_diffuse_csv(out, graph, x, taus, matvecs + 1)
    assert any("matvecs" in f for f in fails)


BT_TAUS = [float(t) for t in np.logspace(-1.0, 1.0, 5)]


@pytest.fixture(scope="module")
def bound_table_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("table") / "table.csv"
    assert chebheat.cli.main(["bound-table", "--n", "40", "--p", "0.2", "--trials", "3",
                              "--scales", "log:1e-1:10:5", "--tol", "1e-5", "--seed", "7",
                              "--true", "--out", str(out)]) == 0
    return out, checks.true_order_range(40, 0.2, 7, 3, BT_TAUS, 1e-5)


def _edit_column(src, dst, column, delta):
    lines = src.read_text().splitlines(keepends=True)
    head = next(k for k, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[head].strip().split(",").index(column)
    row = lines[head + 2].rstrip("\n").split(",")
    row[col] = repr(float(row[col]) + float(delta))
    lines[head + 2] = ",".join(row) + "\n"
    dst.write_text("".join(lines))


def test_bound_table_check_accepts_program_output(bound_table_run):
    out, (lo, hi) = bound_table_run
    assert checks.check_bound_table(out, lo, hi, BT_TAUS) == []


def test_bound_table_check_rejects_shifted_true_order(bound_table_run, tmp_path):
    out, (lo, hi) = bound_table_run
    table = checks.read_bound_table(out)
    # one past the accepted range: the recomputed high quantile plus the one-order margin
    shift = np.percentile(hi, 50.0, axis=0)[2] + 2.0 - table["k_true_median"][2]
    bad = tmp_path / "shifted.csv"
    _edit_column(out, bad, "k_true_median", shift)
    fails = checks.check_bound_table(bad, lo, hi, BT_TAUS)
    assert any("k_true_median" in f and "recomputed" in f for f in fails)


def test_bound_table_check_rejects_uncertified_order(bound_table_run, tmp_path):
    out, (lo, hi) = bound_table_run
    table = checks.read_bound_table(out)
    gap = table["k_new_specific_q25"][2] - table["k_true_q25"][2]
    bad = tmp_path / "low.csv"
    _edit_column(out, bad, "k_new_specific_q25", -(gap + 1.0))
    fails = checks.check_bound_table(bad, lo, hi, BT_TAUS)
    assert any("certified k_new_specific_q25" in f for f in fails)


def test_true_order_range_holds_every_admissible_estimate():
    # the program's measured order, computed with estimates anywhere in
    # [lambda_max, 1.02 lambda_max], stays inside the accepted range
    from chebheat.bounds import true_min_order
    from chebheat.graphs import load_signal

    i, j = checks.er_edges(40, 0.2, 7)
    op = build_laplacian(list(zip(i.tolist(), j.tolist())), 40)
    lam_max = float(np.linalg.eigvalsh(checks.dense_combinatorial(40, i, j))[-1])
    sig = load_signal("normal:10007", 40)
    lo, hi = checks.true_order_range(40, 0.2, 7, 1, BT_TAUS, 1e-5)
    for margin in (1.0, 1.0037, 1.0123, 1.02):
        for col, tau in enumerate(BT_TAUS):
            k = true_min_order(op, sig, tau, 1e-5, lambda_max=margin * lam_max)
            assert lo[0, col] - 1 <= k <= hi[0, col] + 1
