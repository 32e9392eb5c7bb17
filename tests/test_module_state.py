"""The package keeps no state at module level.

Facts about an operator are kept on the operator object, so they live
and die with it. A ``global`` statement or a ``functools`` cache
decorator in a package module would hold such state for the whole
process instead, under a policy of its own, and so would a thread,
queue, lock or pool made when the module is imported and shared by
every call. Likewise one runner, ``graphs._helper_thread``, holds the
thread policy: no other code starts or places a thread, or catches
every error as the runner does to hand a helper's error on. And only
``graphs`` reads the layout an operator keeps for its matvec.
"""

import ast
from pathlib import Path

import chebheat

MODULES = sorted(Path(chebheat.__file__).resolve().parent.glob("*.py"))
CACHES = {"lru_cache", "cache"}
SHARED = {"Thread", "SimpleQueue", "Queue", "Semaphore", "Lock", "ThreadPoolExecutor"}
THREAD_POLICY = {"Thread", "sched_setaffinity"}


def _name(node):
    """The last name in a call, attribute or name expression, else None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _run_at_import(tree):
    """The nodes of ``tree`` that run when its module is imported.

    Everything but the bodies of functions and lambdas; their decorators
    and default values run at import too.
    """
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(getattr(node, "decorator_list", []) + node.args.defaults
                         + [d for d in node.args.kw_defaults if d is not None])
        else:
            stack.extend(ast.iter_child_nodes(node))


def _module_state(path):
    found = []
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append(f"{path.name}:{node.lineno}: global {', '.join(node.names)}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                if _name(dec) in CACHES:
                    found.append(f"{path.name}:{dec.lineno}: {ast.unparse(dec)} on {node.name}")
    for node in _run_at_import(tree):
        if isinstance(node, ast.Call) and _name(node) in SHARED:
            found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)} at module level")
    return found


PROBE = '''\
import functools, queue, threading
from concurrent.futures import ThreadPoolExecutor
_x = None
_pool = ThreadPoolExecutor(max_workers=1)
_rows, _done = queue.SimpleQueue(), queue.Queue()
_helper = threading.Thread(target=print)

@functools.lru_cache(maxsize=1)
def f(a, free=threading.Semaphore(4)):
    global _x
    return a

@functools.cache
def g(a):
    return threading.Thread(target=print), queue.SimpleQueue(), threading.Lock()

class Shared:
    lock = threading.Lock()
    run = lambda self: queue.Queue()
'''


def test_no_global_statement_or_cache_decorator(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(PROBE, encoding="utf-8")
    # the guard sees every form it forbids, and no call in a function body
    assert sorted(hit.split(": ", 1)[1] for hit in _module_state(probe)) == [
        "ThreadPoolExecutor(max_workers=1) at module level",
        "functools.cache on g",
        "functools.lru_cache(maxsize=1) on f",
        "global _x",
        "queue.Queue() at module level",
        "queue.SimpleQueue() at module level",
        "threading.Lock() at module level",
        "threading.Semaphore(4) at module level",
        "threading.Thread(target=print) at module level",
    ]
    assert {p.name for p in MODULES} >= {"chebyshev.py", "diffusion.py", "graphs.py", "oracle.py"}
    assert [hit for path in MODULES for hit in _module_state(path)] == []


def _runner(path, tree):
    """The ids of the nodes of the one runner, ``graphs._helper_thread``, in ``tree``."""
    return {id(inner) for node in (tree.body if path.name == "graphs.py" else [])
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == "_helper_thread"
            for inner in ast.walk(node)}


def _thread_policy(path):
    """Calls that start or place a thread outside the one runner, ``graphs._helper_thread``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    runner = _runner(path, tree)
    return [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _name(node) in THREAD_POLICY
            and id(node) not in runner]


POLICY_PROBE = '''\
import os, threading
from threading import Thread

def _helper_thread(work, cpus, name):
    def run():
        os.sched_setaffinity(0, cpus)
        work()
    threading.Thread(target=run, name=name).start()

def elsewhere(work):
    Thread(target=work).start()
    os.sched_setaffinity(0, {1})

class Pool:
    def _helper_thread(self, work):
        return threading.Thread(target=work)
'''


def test_threads_are_started_and_placed_only_by_the_runner(tmp_path):
    # the one runner in graphs.py starts, places and joins every helper
    # thread; a call to either anywhere else in the package fails here
    probe = tmp_path / "graphs.py"
    probe.write_text(POLICY_PROBE, encoding="utf-8")
    assert sorted(hit.split(": ", 1)[1] for hit in _thread_policy(probe)) == [
        "Thread(target=work)",
        "os.sched_setaffinity(0, {1})",
        "threading.Thread(target=work)",
    ]
    elsewhere = tmp_path / "chebyshev.py"
    elsewhere.write_text(POLICY_PROBE, encoding="utf-8")
    assert len(_thread_policy(elsewhere)) == 5  # the runner counts only in graphs.py
    assert [hit for path in MODULES for hit in _thread_policy(path)] == []
    # and the runner makes each call once
    graphs = ast.parse(next(p for p in MODULES if p.name == "graphs.py").read_text("utf-8"))
    calls = sorted(_name(node) for node in ast.walk(graphs)
                   if isinstance(node, ast.Call) and _name(node) in THREAD_POLICY)
    assert calls == ["Thread", "sched_setaffinity"]


def _catch_all(path):
    """``except BaseException`` and bare ``except:`` clauses outside the one runner."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    runner = _runner(path, tree)
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and id(node) not in runner:
            caught = getattr(node.type, "elts", [node.type])  # a bare except: [None]
            if node.type is None or "BaseException" in map(_name, caught):
                hits.append(f"{path.name}:{node.lineno}: {ast.unparse(node).splitlines()[0]}")
    return hits


CATCH_PROBE = '''\
import builtins


class _helper_thread:
    def run(self, work):
        try:
            work()
        except BaseException as exc:
            self.error = exc


def elsewhere(work):
    try:
        work()
    except:
        pass
    try:
        work()
    except (ValueError, builtins.BaseException):
        pass
    try:
        work()
    except Exception:
        pass
'''


def test_only_the_runner_catches_every_error(tmp_path):
    # a helper's error reaches the calling thread through the runner alone:
    # nothing else in the package may swallow or hand on every error
    probe = tmp_path / "graphs.py"
    probe.write_text(CATCH_PROBE, encoding="utf-8")
    assert [hit.split(": ", 1)[1] for hit in _catch_all(probe)] == [
        "except:", "except (ValueError, builtins.BaseException):"]
    elsewhere = tmp_path / "chebyshev.py"
    elsewhere.write_text(CATCH_PROBE, encoding="utf-8")
    assert len(_catch_all(elsewhere)) == 3  # the runner counts only in graphs.py
    assert [hit for path in MODULES for hit in _catch_all(path)] == []


LAYOUT = {"_cols", "_vals", "_shifts", "_misses", "_row_starts", "_nonempty"}


def _layout_reads(path):
    """Reads of a ``SparseSymMatrix`` layout attribute outside ``graphs.py``, by name or string."""
    if path.name == "graphs.py":
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr in LAYOUT)
            or (isinstance(node, ast.Constant) and node.value in LAYOUT)]


LAYOUT_PROBE = '''\
def floor(op):
    rows = op._cols.shape[0]
    return op._vals[rows], getattr(op, "_misses"), op.col_idx, op._facts, op._diagonal()
'''


def test_only_graphs_reads_the_operator_layout(tmp_path):
    # the padded planes and the reduceat starts belong to graphs.py: every
    # other module reads an operator through its methods and properties
    probe = tmp_path / "diffusion.py"
    probe.write_text(LAYOUT_PROBE, encoding="utf-8")
    assert sorted(hit.split(": ", 1)[1] for hit in _layout_reads(probe)) == [
        "'_misses'", "op._cols", "op._vals"]
    inside = tmp_path / "graphs.py"
    inside.write_text(LAYOUT_PROBE, encoding="utf-8")
    assert _layout_reads(inside) == []
    assert [hit for path in MODULES for hit in _layout_reads(path)] == []
