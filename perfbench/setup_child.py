"""One set-up of a workload, timed in a fresh process.

Usage: ``python3 perfbench/setup_child.py '<spec json>' <trace 0|1>``

The spec names the module to import and the chebheat calls that prepare
inputs. The timed span starts before ``import chebheat`` (so numpy and
any module chebheat imports eagerly count) and ends after the last call.
The timing reference runs afterwards. Prints one JSON object.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import common

common.pin_threads()
common.use_source_tree()


def _call(call) -> None:
    kind, *args = call
    if kind == "cli":
        import chebheat.cli

        rc = chebheat.cli.main(args)
        if rc != 0:
            raise RuntimeError(f"chebheat {' '.join(args)} exited with {rc}")
    elif kind == "load_build":
        import chebheat.graphs

        path, laplacian = args
        edges, n = chebheat.graphs.load_graph(path)
        chebheat.graphs.build_laplacian(edges, n, kind=laplacian)
    else:
        raise ValueError(f"unknown set-up call {kind!r}")


def main() -> None:
    spec = json.loads(sys.argv[1])
    trace = sys.argv[2] == "1"
    t0 = time.perf_counter()
    module = importlib.import_module(spec["import"])
    tracer = None
    if trace:  # traced set-ups report spans; their set-up time is not used
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    for call in spec["calls"]:
        _call(call)
    setup_s = time.perf_counter() - t0
    common.check_source_tree(module)
    if tracer is not None:
        tracer.uninstall()
    ref_s = (common.reference_seconds("array") + common.reference_seconds("array")) / 2.0
    print(json.dumps({"setup_s": setup_s, "ref_s": ref_s,
                      "summary": tracer.summary() if tracer else {}}))


if __name__ == "__main__":
    main()
