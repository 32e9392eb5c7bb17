"""The benchmark's workloads still run on chebheat, on reduced inputs.

``perfbench/run.py`` counts a job that raises or exits non-zero as
``failed`` and a run whose outputs fail a check as not ``correct``. Each
workload runs here in a subclass with smaller inputs, through run.py's
sequence: its set-up calls (in this process), ``prepare``, each job
under ``tracing.MatvecCounter``, ``after_job``, then ``check``. A report
field, CLI flag or output format that the benchmark reads and the
program no longer provides fails here instead of in a benchmark run.
"""

import importlib
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

# setup_child pins BLAS threads and prepends the checkout's src/ when it is
# imported; both are undone after the import
with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
    import setup_child  # noqa: E402


class SmallCliEr(workloads.CliErNormalized):
    N = 2000
    P = 0.01


class SmallLattice(workloads.LibGridMultiscale):
    SIDE = 64


class SmallBoundTable(workloads.BoundTableOracle):
    TRIALS = 1


def _run(wl):
    """Records and check failures of one warm-up and one timed round."""
    warm, timed, _ = wl.job_keys(wl.round_size, False)
    keys = warm + timed
    wl.write_inputs(keys)
    for spec in wl.setup_specs(keys):
        importlib.import_module(spec["import"])
        for call in spec["calls"]:
            setup_child._call(call)
    counter = tracing.MatvecCounter()
    counter.install()
    try:
        wl.prepare()
        records = []
        for key in keys:
            counter.count = 0
            rec = wl.run_job(key)
            rec["matvecs"] = counter.count
            if rec["ok"]:
                wl.after_job()
            records.append(rec)
    finally:
        counter.uninstall()
    return records, wl.check([r for r in records if r["ok"]])


@pytest.mark.parametrize("cls", [SmallCliEr, SmallLattice, SmallBoundTable],
                         ids=lambda cls: cls.name)
def test_workload_runs_and_passes_its_checks(cls, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    records, fails = _run(cls(7, tmp_path))
    assert [r for r in records if not r["ok"]] == []
    assert fails == []
