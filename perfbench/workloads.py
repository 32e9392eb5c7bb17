"""The three workloads: the inputs they make, their jobs and their checks.

A job is one certified result, run in a closed loop by one caller. The
graphs whose power iteration and order selection set the matvec count
come from a fixed pool, the same in every run, so ``matvecs_per_job``
repeats exactly; ``--seed`` moves what leaves that count alone: which
node a signal sits on, how it is placed or permuted, and the order the
jobs run in. Signal values are multiples of a power of two, so their
norm and component sum are exact whatever the placement (see README.md).

``checks`` (and with it scipy) is imported only after the timed jobs, so
it adds nothing to their peak resident memory.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path

import numpy as np

import chebheat.cli
import chebheat.diffusion
import chebheat.graphs


def _median(values) -> float:
    return float(statistics.median(values))


class Workload:
    """One workload of the benchmark; subclasses fill in the specifics."""

    name = ""
    nominal_job_s = 1.0  # median job_s on the reference machine: jobs = --seconds / this
    round_size = 1  # jobs that differ in kind; runs hold whole rounds
    min_rounds = 3  # a floor for short --seconds: fewer jobs give a noisy median
    timing_reference = "array"  # see common.REFERENCES
    setup_runs = 5

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.rng = np.random.default_rng([seed, 0x5EED])

    def job_count(self, seconds: int) -> int:
        rounds = max(self.min_rounds, round(seconds / (self.round_size * self.nominal_job_s)))
        return rounds * self.round_size

    def job_keys(self, jobs: int, trace: bool) -> tuple[list, list, list]:
        """(warm-up, timed, traced) job keys; traced is empty without tracing."""
        return [0], list(range(1, jobs + 1)), list(range(jobs + 1, 2 * jobs + 1)) if trace else []

    def write_inputs(self, keys) -> None:
        """Write the input files the program reads; benchmark code only."""

    def setup_specs(self, keys) -> list[dict]:
        """One dict per set-up child: what it imports and the chebheat calls it makes."""
        return [{"import": "chebheat.cli", "calls": []} for _ in range(self.setup_runs)]

    def prepare(self) -> None:
        """Untimed preparation in the workload process itself."""

    def run_job(self, key) -> dict:
        raise NotImplementedError

    def after_job(self) -> None:
        """Untimed work right after a job, such as saving its outputs."""

    def check(self, records) -> list[str]:
        raise NotImplementedError

    def reference(self, records) -> tuple[float, float]:
        """(scipy expm_multiply seconds, largest relative 2-norm difference)."""
        raise NotImplementedError

    def layer_extras(self, records) -> dict:
        """Per-layer figures taken from the program's reports, not from spans."""
        return {"diffusion.setup_matvecs": 0.0, "bounds.order_k": 0.0,
                "chebyshev.basis_mb": 0.0, "cli.output_mb": 0.0}


# ------------------------------------------------------------ CLI, ER graph


class CliErNormalized(Workload):
    """``chebheat diffuse`` on fresh ER edge-list files, normalized Laplacian."""

    name = "cli-er-normalized"
    nominal_job_s = 1.8
    N = 20000
    P = 0.001  # mean degree about 20
    SCALES = "log:1e-3:10:20"
    TOL = "1e-5"
    GRAPH_SEED_BASE = 1  # slot k reads the graph drawn with seed GRAPH_SEED_BASE + k

    def __init__(self, seed, work):
        super().__init__(seed, work)
        base = np.random.default_rng(20210430).standard_normal(self.N)
        # multiples of 2^-12: sums of values and squares are exact in any order
        self.base_signal = np.round(base * 4096.0) / 4096.0
        self.taus = [float(t) for t in np.logspace(-3.0, 1.0, 20)]

    def job_keys(self, jobs, trace):
        warm, timed, traced = super().job_keys(jobs, trace)
        return warm, [int(k) for k in self.rng.permutation(timed)], traced

    def _graph(self, slot):
        return self.work / f"graph-{slot}.txt"

    def _signal(self, slot):
        return self.work / f"signal-{slot}.txt"

    def _output(self, slot):
        return self.work / f"out-{slot}.csv"

    def signal_values(self, slot) -> np.ndarray:
        return np.random.default_rng([self.seed, slot]).permutation(self.base_signal)

    def write_inputs(self, keys):
        for slot in keys:
            self._signal(slot).write_text(
                "\n".join(repr(float(v)) for v in self.signal_values(slot)) + "\n",
                encoding="utf-8")

    def setup_specs(self, keys):
        # one fresh process per job: import plus gen-graph of that job's file
        return [{"import": "chebheat.cli",
                 "calls": [["cli", "gen-graph", "--n", str(self.N), "--p", repr(self.P),
                            "--seed", str(self.GRAPH_SEED_BASE + slot),
                            "--out", str(self._graph(slot))]]}
                for slot in keys]

    def run_job(self, slot):
        rc = chebheat.cli.main([
            "diffuse", "--graph", str(self._graph(slot)), "--signal", str(self._signal(slot)),
            "--laplacian", "normalized", "--scales", self.SCALES, "--tol", self.TOL,
            "--out", str(self._output(slot))])
        return {"slot": slot, "ok": rc == 0, "rc": rc}

    def check(self, records):
        import checks

        fails = []
        for rec in records:
            timings = {}
            fails += checks.check_diffuse_csv(self._output(rec["slot"]), self._graph(rec["slot"]),
                                              self.signal_values(rec["slot"]), self.taus,
                                              rec["matvecs"], timings)
            rec.update(scipy_s=timings["scipy_s"], rel_err=timings["rel_err"])
        return fails

    def reference(self, records):
        done = [r for r in records if "scipy_s" in r]
        return (statistics.median(r["scipy_s"] for r in done),
                max(r["rel_err"] for r in done))

    def layer_extras(self, records):
        import checks

        metas = [checks.read_diffuse_csv(self._output(r["slot"]))[0] for r in records if r["ok"]]
        n = self.N
        return {
            "diffusion.setup_matvecs": _median(int(m["setup_matvecs"]) for m in metas),
            "bounds.order_k": _median(int(m["K"]) for m in metas),
            "chebyshev.basis_mb": _median((int(m["K"]) + 1) * n * 8 / 2**20 for m in metas),
            "cli.output_mb": statistics.fmean(
                self._output(r["slot"]).stat().st_size / 2**20 for r in records if r["ok"]),
        }


# ----------------------------------------------------- library, 2-D lattice


class LibGridMultiscale(Workload):
    """``expm_multiscale`` on a 200 x 200 lattice loaded from Matrix Market."""

    name = "lib-grid-multiscale"
    nominal_job_s = 0.92
    round_size = 3  # Dirac, Gaussian bump, smooth positive signal
    min_rounds = 2
    SIDE = 200
    TOL = 1e-8
    BUMP_SIGMA = 6.0
    BUMP_RADIUS = 30  # the quantized bump is exactly 0 on the window edge

    def __init__(self, seed, work):
        super().__init__(seed, work)
        side = self.SIDE
        self.n = side * side
        self.taus = [float(t) for t in np.logspace(-2.0, 2.0, 32)]
        self.mtx = work / "lattice.mtx"
        q = 2.0 ** -16  # values are multiples of q: exact norms and sums in any order
        r = np.arange(-self.BUMP_RADIUS, self.BUMP_RADIUS + 1)
        d2 = r[:, None] ** 2 + r[None, :] ** 2
        self.bump = np.round(np.exp(-d2 / (2.0 * self.BUMP_SIGMA ** 2)) / q) * q
        if self.bump[0].any() or self.bump[:, 0].any() or self.bump[-1].any() or self.bump[:, -1].any():
            raise AssertionError("bump patch is cut off by its window")
        c = (np.arange(side) + 0.5) * math.pi / side
        self.smooth = np.round((1.0 + 0.5 * np.outer(np.cos(3.0 * c), np.cos(2.0 * c))) / q) * q
        self.op = None
        self._pending = None

    def signal(self, key) -> np.ndarray:
        """Job ``key``'s signal: kind by position in the round, placement by seed."""
        window, i = key
        rng = np.random.default_rng([self.seed, window, i])
        side = self.SIDE
        kind = i % 3
        if kind == 0:
            x = np.zeros(self.n)
            x[int(rng.integers(self.n))] = 1.0
            return x
        if kind == 1:
            grid = np.zeros((side, side))
            ci, cj = (int(v) for v in rng.integers(self.BUMP_RADIUS, side - self.BUMP_RADIUS, 2))
            rad = self.BUMP_RADIUS
            grid[ci - rad:ci + rad + 1, cj - rad:cj + rad + 1] = self.bump
            return grid.ravel()
        flip = int(rng.integers(8))  # one of the square's eight symmetries
        grid = self.smooth.T if flip & 1 else self.smooth
        if flip & 2:
            grid = grid[::-1, :]
        if flip & 4:
            grid = grid[:, ::-1]
        return np.ascontiguousarray(grid).ravel()

    def job_keys(self, jobs, trace):
        return ([(0, 0)], [(1, i) for i in range(jobs)],
                [(2, i) for i in range(jobs)] if trace else [])

    def write_inputs(self, keys):
        side = self.SIDE
        idx = np.arange(self.n).reshape(side, side)
        a = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
        b = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
        with open(self.mtx, "w", encoding="utf-8") as fh:
            fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
            fh.write(f"% {side} x {side} lattice, 4-neighbour\n")
            fh.write(f"{self.n} {self.n} {a.size}\n")
            fh.write("".join(f"{hi + 1} {lo + 1}\n" for lo, hi in zip(a.tolist(), b.tolist())))

    def setup_specs(self, keys):
        return [{"import": "chebheat",
                 "calls": [["load_build", str(self.mtx), "combinatorial"]]}
                for _ in range(self.setup_runs)]

    def prepare(self):
        edges, n = chebheat.graphs.load_graph(self.mtx)
        self.op = chebheat.graphs.build_laplacian(edges, n)

    def _output(self, key):
        return self.work / f"out-{key[0]}-{key[1]}.npy"

    def run_job(self, key):
        x = self.signal(key)
        results = chebheat.diffusion.expm_multiscale(self.op, x, self.taus, tol=self.TOL)
        rep = results[0][1]
        out = {"key": key, "ok": True, "order": rep.order, "setup": rep.setup_matvecs,
               "reported": rep.matvecs, "lambda_max": rep.lambda_max,
               "bounds": [r.bound for _, r in results]}
        self._pending = (key, results)
        return out

    def after_job(self):
        """Move the last job's outputs to disk, outside the timed region."""
        key, results = self._pending
        np.save(self._output(key), np.stack([y for y, _ in results]))
        self._pending = None

    def check(self, records):
        import checks

        fails = []
        for rec in records:
            key = rec["key"]
            x = self.signal(key)
            ys = np.load(self._output(key))
            fails += checks.check_lattice_job(x, ys, self.taus, rec["bounds"], rec["lambda_max"],
                                              rec["order"], self.SIDE)
            fails += checks.check_matvecs(rec["matvecs"], rec["reported"], rec["setup"])
            single, _ = chebheat.diffusion.expm_multiply(self.op, x, self.taus[-1], tol=self.TOL,
                                                         lambda_max=rec["lambda_max"])
            fails += checks.check_bitwise(ys[-1], single, f"job {key} at tau={self.taus[-1]}")
        return fails

    def reference(self, records):
        import time

        from scipy import sparse
        from scipy.sparse.linalg import expm_multiply

        op = self.op
        lap = sparse.csr_array((op.values, op.col_idx, op.row_ptr), shape=(op.n, op.n))
        x = self.signal(records[0]["key"])
        ys = np.load(self._output(records[0]["key"]))
        t0 = time.perf_counter()
        trace = float(lap.trace())
        refs = [expm_multiply(-tau * lap, x, traceA=-tau * trace) for tau in self.taus]
        elapsed = time.perf_counter() - t0
        worst = max(float(np.linalg.norm(y - w) / np.linalg.norm(w)) for y, w in zip(ys, refs))
        return elapsed, worst

    def layer_extras(self, records):
        return {
            "diffusion.setup_matvecs": _median(r["setup"] for r in records),
            "bounds.order_k": _median(r["order"] for r in records),
            "chebyshev.basis_mb": _median((r["order"] + 1) * self.n * 8 / 2**20
                                              for r in records),
            "cli.output_mb": 0.0,
        }


# ------------------------------------------------- CLI, oracle order table


class BoundTableOracle(Workload):
    """``chebheat bound-table --true`` on small ER graphs: the paper's order table."""

    name = "bound-table-oracle"
    nominal_job_s = 3.6
    min_rounds = 8  # 3 to 5 jobs left the median 7 to 11% apart between runs
    setup_runs = 9  # an import alone is short, so take more of them
    timing_reference = "jacobi"
    N = 100
    P = 0.1
    TRIALS = 4
    SCALES = "log:1e-2:1e2:25"
    TOL = 1e-5
    SEED_BASE = 1000  # slot k draws graph seeds SEED_BASE + 4k .. SEED_BASE + 4k + 3

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.taus = [float(t) for t in np.logspace(-2.0, 2.0, 25)]

    def job_keys(self, jobs, trace):
        warm, timed, traced = super().job_keys(jobs, trace)
        return warm, [int(k) for k in self.rng.permutation(timed)], traced

    def _base(self, slot):
        return self.SEED_BASE + self.TRIALS * slot

    def _trials(self, slot):
        return 1 if slot == 0 else self.TRIALS  # a one-trial warm-up leaves time for jobs

    def _output(self, slot):
        return self.work / f"table-{slot}.csv"

    def run_job(self, slot):
        rc = chebheat.cli.main([
            "bound-table", "--n", str(self.N), "--p", repr(self.P),
            "--trials", str(self._trials(slot)), "--scales", self.SCALES, "--tol", repr(self.TOL),
            "--seed", str(self._base(slot)), "--true", "--out", str(self._output(slot))])
        return {"slot": slot, "ok": rc == 0, "rc": rc}

    def check(self, records):
        import checks

        fails = []
        for rec in records:
            lo, hi = checks.true_order_range(self.N, self.P, self._base(rec["slot"]),
                                             self._trials(rec["slot"]), self.taus, self.TOL)
            fails += checks.check_bound_table(self._output(rec["slot"]), lo, hi, self.taus)
        return fails

    def reference(self, records):
        import time

        import checks
        from scipy.sparse.linalg import expm_multiply

        # the job's own oracle is the dense spectrum; scipy is timed on trial 0
        i, j = checks.er_edges(self.N, self.P, self._base(records[0]["slot"]))
        lap = checks.dense_combinatorial(self.N, i, j)
        x = np.random.default_rng(self._base(records[0]["slot"]) + 10000).standard_normal(self.N)
        lam, vecs = np.linalg.eigh(lap)
        t0 = time.perf_counter()
        refs = [expm_multiply(-tau * lap, x) for tau in self.taus]
        elapsed = time.perf_counter() - t0
        exact = [vecs @ (np.exp(-tau * lam) * (vecs.T @ x)) for tau in self.taus]
        worst = max(float(np.linalg.norm(r - w) / np.linalg.norm(w)) for r, w in zip(refs, exact))
        return elapsed, worst

    def layer_extras(self, records):
        out = super().layer_extras(records)
        out["cli.output_mb"] = statistics.fmean(
            self._output(r["slot"]).stat().st_size / 2**20 for r in records if r["ok"])
        return out


WORKLOADS = {cls.name: cls for cls in (CliErNormalized, LibGridMultiscale, BoundTableOracle)}
