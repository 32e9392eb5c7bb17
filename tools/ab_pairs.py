"""Run the benchmark in a parent checkout and the current one, in interleaved pairs.

A pair runs ``perfbench/run.py`` once in each checkout, one workload and
one seed, untraced, one run right after the other; the pairs alternate
which checkout goes first, so a drift in the machine's speed loads both
sides alike. It prints each pair's end-to-end metrics, then each
metric's median and quartiles on both sides and the count of pairs in
which the current checkout did better, in the direction BENCHMARK.json
gives.

Run from the repository root, with the parent as a directory or as a
git revision, which is then exported to a temporary directory::

    python tools/ab_pairs.py --parent HEAD~1 --workload bound-table-oracle --pairs 10

Each run writes its details under its own checkout's ``.perfbench/``.
The seeds are ``--seed-base`` + 0, 1, ...; the seconds per run default
to BENCHMARK.json's ``run_seconds``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _export(rev: str, into: Path) -> Path:
    """The tree of ``rev`` as files under ``into``."""
    tree = into / "parent"
    tree.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def _run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """The end-to-end metrics of one untraced run in ``tree``, with its failure count."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"ab_pairs: run in {tree} failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["failed"] = result["failed"]
    return metrics


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="parent checkout: a directory or a git revision")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(args.parent)
        parent = parent.resolve() if parent.is_dir() else _export(args.parent, Path(tmp))
        sides = {"parent": parent, "current": ROOT}
        runs = {"parent": [], "current": []}
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ["parent", "current"] if i % 2 == 0 else ["current", "parent"]
            for side in order:
                runs[side].append(_run(sides[side], args.workload, seed, args.seconds))
            last = {side: r[-1] for side, r in runs.items()}
            line = "  ".join(f"{name} {last['parent'][name]:.6g} -> {last['current'][name]:.6g}"
                             for name in [*better, "failed"])
            print(f"pair {i + 1} seed {seed} ({order[0]} first): {line}", flush=True)

    print(f"{args.workload}, {args.pairs} pairs: median [quartiles], parent -> current, "
          f"pairs the current checkout won")
    for name, direction in better.items():
        before = [r[name] for r in runs["parent"]]
        after = [r[name] for r in runs["current"]]
        sign = 1.0 if direction == "lower" else -1.0
        won = sum(sign * (a - b) < 0.0 for a, b in zip(after, before))
        (p1, p2, p3), (c1, c2, c3) = _quartiles(before), _quartiles(after)
        change = (c2 - p2) / p2 * 100.0 if p2 else 0.0
        print(f"  {name}: {p2:.6g} [{p1:.6g}, {p3:.6g}] -> {c2:.6g} [{c1:.6g}, {c3:.6g}]"
              f" ({change:+.1f}%), won {won}/{args.pairs}")
    failed = sum(r["failed"] for r in runs["parent"]), sum(r["failed"] for r in runs["current"])
    print(f"  failed jobs: {failed[0]} -> {failed[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
