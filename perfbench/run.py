"""chebheat benchmark: one workload, one process, one JSON line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The sequence is:

1. write the workload's input files (benchmark code, untimed);
2. run its set-up several times, each in a fresh child process
   (``setup_child.py``), and time each one next to the timing reference;
3. in this process: one untimed warm-up job, then the timed jobs in a
   closed loop, each between two runs of the timing reference;
4. read the peak resident memory, then check every output against
   computations that share no code with chebheat (``checks.py``);
5. with ``--trace 1``, run the same number of jobs again with spans
   around chebheat's public functions (``tracing.py``) and time scipy's
   ``expm_multiply`` on the same operator and scales.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. Details of the run go to
``.perfbench/results/`` and spans to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
SETUP_TIMEOUT_S = 150


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _run_setup(spec: dict, trace: bool, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), json.dumps(spec), "1" if trace else "0"],
        capture_output=True, text=True, env=env, cwd=common.ROOT, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up child failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed_jobs(wl, keys, counter) -> list[dict]:
    """Run jobs one after another, each between two runs of the timing reference."""
    records = []
    nominal = common.REFERENCES[wl.timing_reference][1]
    ref_before = common.reference_seconds(wl.timing_reference)
    for key in keys:
        gc.collect()
        counter.count = 0
        t0 = time.perf_counter()
        try:
            rec = wl.run_job(key)
        except Exception:  # a failing job is counted and reported, the run goes on
            rec = {"key": key, "ok": False, "error": traceback.format_exc(limit=4)}
        wall = time.perf_counter() - t0
        rec["matvecs"] = counter.count
        if rec["ok"]:
            wl.after_job()
        ref_after = common.reference_seconds(wl.timing_reference)
        ref = (ref_before + ref_after) / 2.0
        rec.update(wall_s=wall, ref_s=ref, job_s=wall * nominal / ref)
        ref_before = ref_after
        records.append(rec)
    return records


def _per_layer(job_summary, n_jobs, setup_summary, n_setups, extras) -> dict:
    def per(name, key):
        # per job where the jobs call the layer, else per set-up
        for summary, units in ((job_summary, n_jobs), (setup_summary, n_setups)):
            rec = summary.get(name)
            if rec and rec["calls"]:
                return rec.get(key, 0.0) / units
        return 0.0

    matvec = job_summary.get("graphs.matvec", {})
    matvec_s = matvec.get("total_s", 0.0)
    return {
        "graphs.erdos_renyi_s": per("graphs.erdos_renyi", "total_s"),
        "graphs.save_edge_list_s": per("graphs.save_edge_list", "total_s"),
        "graphs.load_graph_s": per("graphs.load_graph", "total_s"),
        "graphs.build_laplacian_s": per("graphs.build_laplacian", "total_s"),
        "graphs.matvec_calls": matvec.get("calls", 0) / n_jobs,
        "graphs.matvec_s": matvec_s / n_jobs,
        "graphs.matvec_gb_per_s": matvec.get("bytes", 0) / matvec_s / 1e9 if matvec_s else 0.0,
        "diffusion.make_plan_s": per("diffusion.make_plan", "self_s"),
        "diffusion.setup_matvecs": extras["diffusion.setup_matvecs"],
        "diffusion.expm_multiscale_s": per("diffusion.expm_multiscale", "self_s"),
        "bounds.min_order_s": per("bounds.min_order", "total_s"),
        "bounds.min_order_calls": per("bounds.min_order", "calls"),
        "bounds.log_bound_value_calls": per("bounds.log_bound_value", "calls"),
        "bounds.true_min_order_s": per("bounds.true_min_order", "self_s"),
        "bounds.order_k": extras["bounds.order_k"],
        "bessel.bessel_ie_scaled_s": per("bessel.bessel_ie_scaled", "total_s"),
        "chebyshev.build_basis_s": per("chebyshev.build_basis", "total_s"),
        "chebyshev.combine_s": per("chebyshev.combine", "total_s"),
        "chebyshev.basis_mb": extras["chebyshev.basis_mb"],
        "oracle.jacobi_eigh_s": per("oracle.jacobi_eigh", "total_s"),
        "oracle.jacobi_eigh_calls": per("oracle.jacobi_eigh", "calls"),
        "cli.output_s": per("cli.cmd_diffuse", "tail_s") + per("cli.cmd_bound_table", "tail_s"),
        "cli.output_mb": extras["cli.output_mb"],
    }


def run(args, work: Path) -> tuple[dict, dict]:
    import tracing
    import workloads

    import chebheat

    common.check_source_tree(chebheat)
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    jobs = wl.job_count(args.seconds)
    warm, timed, traced = wl.job_keys(jobs, bool(args.trace))
    wl.write_inputs(warm + timed + traced)

    phases = {}
    clock = time.perf_counter()
    env = common.pin_threads(dict(os.environ))
    setups = [_run_setup(spec, bool(args.trace), env) for spec in wl.setup_specs(warm + timed + traced)]

    phases["setup_children_s"] = time.perf_counter() - clock
    clock = time.perf_counter()
    counter = tracing.MatvecCounter()
    counter.install()
    wl.prepare()
    records = _timed_jobs(wl, warm, counter)
    untraced = _timed_jobs(wl, timed, counter)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases["jobs_s"] = time.perf_counter() - clock
    clock = time.perf_counter()
    tracer = None
    traced_recs = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_recs = _timed_jobs(wl, traced, counter)
        finally:
            tracer.uninstall()
    records += untraced + traced_recs
    phases["traced_jobs_s"] = time.perf_counter() - clock
    clock = time.perf_counter()

    # a job that raised or exited non-zero counts in ``failed``; ``correct``
    # speaks of the outputs of the jobs that returned
    ok = [r for r in records if r["ok"]]
    failures = [r.get("error") or f"job {r.get('key', r.get('slot'))} failed: {r}"
                for r in records if not r["ok"]]
    check_failures = wl.check(ok)
    phases["checks_s"] = time.perf_counter() - clock
    good = [r for r in untraced if r["ok"]]
    if not good:
        sys.exit("perfbench: every timed job failed:\n" + "\n".join(failures[:5]))

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "jobs": records, "setups": setups,
              "failures": failures, "check_failures": check_failures, "phases": phases}
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] * common.REFERENCES["array"][1] / s["ref_s"]
                                         for s in setups),
            "job_s": statistics.median(r["job_s"] for r in good),
            "matvecs_per_job": statistics.median(r["matvecs"] for r in good),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        traced_ok = [r for r in traced_recs if r["ok"]]
        job_summary = tracer.summary()
        setup_summary = tracing.merge(s["summary"] for s in setups)
        metrics = _per_layer(job_summary, len(traced_recs), setup_summary, len(setups),
                             wl.layer_extras(traced_ok))
        scipy_s, scipy_err = wl.reference(good)
        metrics["ref.scipy_expm_multiply_s"] = scipy_s
        metrics["ref.scipy_rel_err"] = scipy_err
        metrics["ref.tracing_overhead"] = (statistics.median(r["job_s"] for r in traced_ok)
                                           / statistics.median(r["job_s"] for r in good))
        detail["spans"] = tracer.spans
        detail["job_summary"] = job_summary
        detail["setup_summary"] = setup_summary
    detail["metrics"] = metrics
    result = {"correct": not check_failures, "attempted": len(records),
              "failed": len(records) - len(ok), "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    args = _parse_args(argv)
    common.pin_threads()
    common.use_source_tree()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(names)}")
    if args.seconds < 1:
        sys.exit("perfbench: --seconds must be at least 1")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = common.OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, detail = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        sys.exit(f"perfbench: metrics not produced: {missing}")
    result["metrics"] = {m["name"]: {"value": float(result["metrics"][m["name"]]),
                                     "unit": m["unit"]} for m in wanted}
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    results_dir = common.OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    spans = detail.pop("spans", None)
    (results_dir / f"{tag}.json").write_text(json.dumps(detail, indent=1, default=str),
                                             encoding="utf-8")
    if spans is not None:
        traces_dir = common.OUT / "traces"
        traces_dir.mkdir(parents=True, exist_ok=True)
        (traces_dir / f"{tag}.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"], "spans": spans}),
            encoding="utf-8")
    for line in (detail["failures"] + detail["check_failures"])[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
