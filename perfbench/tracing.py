"""Spans and call counts around chebheat's public functions, from outside.

chebheat's modules import functions by name (``from .chebyshev import
build_basis``), so a function is wrapped at every module attribute
through which some caller looks it up: ``chebheat.diffusion.build_basis``
is what ``expm_multiscale`` calls, ``chebheat.cli.expm_multiscale`` is
what ``diffuse`` calls. Spans stay in memory; the run writes them out
when it ends.
"""

from __future__ import annotations

import collections
import functools
import importlib
import time

# (module, attribute, span name); a dotted attribute names a method
SPANNED = [
    ("chebheat.cli", "cmd_diffuse", "cli.cmd_diffuse"),
    ("chebheat.cli", "cmd_bound_table", "cli.cmd_bound_table"),
    ("chebheat.cli", "bound_table_data", "cli.bound_table_data"),
    ("chebheat.cli", "erdos_renyi", "graphs.erdos_renyi"),
    ("chebheat.cli", "save_edge_list", "graphs.save_edge_list"),
    ("chebheat.cli", "load_graph", "graphs.load_graph"),
    ("chebheat.cli", "build_laplacian", "graphs.build_laplacian"),
    ("chebheat.cli", "expm_multiscale", "diffusion.expm_multiscale"),
    ("chebheat.cli", "min_order", "bounds.min_order"),
    ("chebheat.cli", "true_min_order", "bounds.true_min_order"),
    ("chebheat.graphs", "load_graph", "graphs.load_graph"),
    ("chebheat.graphs", "build_laplacian", "graphs.build_laplacian"),
    ("chebheat.graphs", "SparseSymMatrix.matvec", "graphs.matvec"),
    ("chebheat.diffusion", "expm_multiscale", "diffusion.expm_multiscale"),
    ("chebheat.diffusion", "make_plan", "diffusion.make_plan"),
    ("chebheat.diffusion", "min_order", "bounds.min_order"),
    ("chebheat.diffusion", "build_basis", "chebyshev.build_basis"),
    ("chebheat.diffusion", "combine", "chebyshev.combine"),
    ("chebheat.chebyshev", "bessel_ie_scaled", "bessel.bessel_ie_scaled"),
    ("chebheat.oracle", "jacobi_eigh", "oracle.jacobi_eigh"),
]

# called thousands of times per job from inside min_order: counted, not spanned
COUNTED = [
    ("chebheat.bounds", "log_bound_value", "bounds.log_bound_value"),
    ("chebheat.diffusion", "log_bound_value", "bounds.log_bound_value"),
]


def _owner(module: str, attr: str):
    obj = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


def _matvec_bytes(op, x) -> int:
    """Bytes one CSR matvec must move, computed from nnz and n.

    Per stored entry: value, column index, gathered x entry, and the
    product written and read back by the row reduction (5 x 8 bytes).
    Per row: row pointer, output and the row-start gather (3 x 8 bytes).
    """
    return 40 * op.nnz + 24 * op.n


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, module: str, attr: str, make_wrapper) -> None:
        owner, name = _owner(module, attr)
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class MatvecCounter:
    """Counts ``SparseSymMatrix.matvec`` calls; cheap enough for untraced runs."""

    def __init__(self):
        self.count = 0
        self._patches = Patches()

    def _wrap(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        self._patches.replace("chebheat.graphs", "SparseSymMatrix.matvec", self._wrap)

    def uninstall(self) -> None:
        self._patches.undo()


class Tracer:
    """Spans ``[name, start, end, parent]`` and call counts, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: collections.Counter = collections.Counter()
        self.bytes: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patches = Patches()

    def _span(self, name: str, bytes_of=None):
        spans, stack, clock, moved = self.spans, self._stack, time.perf_counter, self.bytes

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if bytes_of is not None:
                    moved[name] += bytes_of(*args)
                idx = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
                stack.append(idx)
                spans[idx][1] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spans[idx][2] = clock()
                    stack.pop()
            return traced
        return make

    def _count(self, name: str):
        calls = self.calls

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def install(self) -> None:
        for module, attr, name in SPANNED:
            bytes_of = _matvec_bytes if name == "graphs.matvec" else None
            self._patches.replace(module, attr, self._span(name, bytes_of))
        for module, attr, name in COUNTED:
            self._patches.replace(module, attr, self._count(name))

    def uninstall(self) -> None:
        self._patches.undo()

    def summary(self) -> dict:
        """Per span name: calls, total, self time, and (for commands) output time.

        Self time is a span's duration minus its child spans' durations,
        except matvec spans, which stay with their caller: the power
        iteration's matvecs are ``make_plan``'s own work. Output time is
        the part of a span after its last child ended, which for a CLI
        command is the writing of its result.
        """
        n = len(self.spans)
        child = [0.0] * n
        last_end = [None] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                if name != "graphs.matvec":
                    child[parent] += end - start
                if last_end[parent] is None or end > last_end[parent]:
                    last_end[parent] = end
        out: dict = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "tail_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child[idx]
            rec["tail_s"] += end - (start if last_end[idx] is None else last_end[idx])
        for name, count in self.calls.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "tail_s": 0.0})
            out[name]["calls"] += count
        for name, moved in self.bytes.items():
            out[name]["bytes"] = moved
        return out


def merge(summaries) -> dict:
    """Add several :meth:`Tracer.summary` results together."""
    out: dict = {}
    for summary in summaries:
        for name, rec in summary.items():
            acc = out.setdefault(name, {})
            for key, value in rec.items():
                acc[key] = acc.get(key, 0) + value
    return out
