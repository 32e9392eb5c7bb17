"""Run one workload on a range of seeds and report each end-to-end metric's spread.

Usage::

    python3 perfbench/spread.py --workload NAME --seeds 1-10

Runs ``run.py`` once per seed, one after another, untraced and for
BENCHMARK.json's ``run_seconds``, and prints for every metric its
values, median, quartiles (``statistics.quantiles(n=4)``) and spread,
the interquartile distance as a share of the median. The summary is
also written to ``.perfbench/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="an inclusive range such as 101-110")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    runs = []
    for seed in range(int(lo), int(hi) + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=common.ROOT, timeout=600)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(seed=seed, run_wall_s=wall)
        runs.append(result)
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med}
        print(f"{name:32s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {summary[name]['spread']:.4f}")
    out = common.OUT / f"spread-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
