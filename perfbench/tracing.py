"""Span tracing of the engine's layers, installed from outside ``src/``.

:func:`install` replaces the public functions of each layer's module with
wrappers, at every name their callers resolve: the defining class or
module, plus every ``repro.*`` module that imported the function by name.
It must run before the first :class:`~repro.Database` is built, because a
database binds storage-method and attachment procedures into its dispatch
vectors when it is constructed.

A *timed* wrapper records a span (name, start, end, parent span, thread)
and accumulates per name the number of calls, the inclusive time (outermost
call only, so recursion through the same name is not counted twice) and
the self time: the span's duration minus the time its child spans cover.
A *counted* wrapper only counts calls; it is for functions too small to
time (``slot_in_use``, ``StatsService.bump``).

State is per thread, because the scatter-gather pool runs shard fragments
on worker threads; the totals of all threads are summed when read.  Spans
are kept in memory, up to :data:`SPAN_CAP`, and written out by
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
from time import perf_counter
from typing import Dict, List, Tuple

#: Timed spans: metric prefix -> (module, attribute path) of each function.
TIMED = {
    "query.parser.parse": [("repro.query.parser", "parse_statement")],
    "query.executor": [("repro.query.executor", "Executor.run_select"),
                       ("repro.query.executor", "Executor.run_insert"),
                       ("repro.query.executor", "Executor.run_update"),
                       ("repro.query.executor", "Executor.run_delete")],
    "query.ir.run": [("repro.query.ir", "Program.run")],
    "query.fragments.merge": [("repro.query.fragments",
                               "merge_fragment_results")],
    "storage.sharded.run_fragment": [("repro.storage.sharded",
                                      "ShardedStorageMethod.run_fragment")],
    "services.scatter.run": [("repro.services.scatter", "ScatterGather.run")],
    "core.dispatch": [("repro.core.dispatch", "DataManager." + name)
                      for name in ("insert", "update", "delete",
                                   "insert_batch", "update_batch",
                                   "delete_batch", "fetch", "fetch_many",
                                   "open_scan")],
    "core.records.decode": [("repro.core.records", "decode_record")],
    "core.records.encode": [("repro.core.records", "encode_record")],
    "storage.heap.next_batch": [("repro.storage.heap", "HeapScan.next_batch")],
    "storage.heap.insert": [("repro.storage.heap", "HeapStorageMethod.insert"),
                            ("repro.storage.heap",
                             "HeapStorageMethod.insert_batch")],
    "access.btree.search": [("repro.access.btree_core", "BTree.search")],
    "access.btree.insert": [("repro.access.btree_core", "BTree.insert")],
    "services.pages.insert": [("repro.services.pages", "PageView.insert")],
    "services.buffer.fetch": [("repro.services.buffer", "BufferPool.fetch")],
    "services.locks.acquire": [("repro.services.locks", "LockManager.acquire")],
    "services.wal.append": [("repro.services.wal", "LogManager.append"),
                            ("repro.services.wal", "LogManager.append_batch")],
    "services.transactions.commit": [("repro.services.transactions",
                                      "TransactionManager.commit")],
    "services.transactions.prepare": [("repro.services.transactions",
                                       "TransactionManager.prepare")],
    "services.recovery.restart": [("repro.services.recovery",
                                   "RecoveryManager.restart")],
    "services.remote.call": [("repro.services.remote", "RemoteTransport.call")],
}

#: Counted-only call sites.
COUNTED = {
    "services.pages.slot_reads": [("repro.services.pages",
                                   "PageView.slot_in_use")],
    "services.stats.bumps": [("repro.services.stats", "StatsService.bump"),
                             ("repro.services.stats",
                              "StatsService.bump_many")],
}

#: Spans kept in memory per run; totals keep counting past it.
SPAN_CAP = 50_000

#: The log flush is timed, and counted as a force only when it advanced
#: the stable LSN (a flush with nothing new to force writes nothing).
FLUSH = ("repro.services.wal", "LogManager.flush")


class _ThreadState:
    __slots__ = ("index", "stack", "depth", "totals", "counts", "next_id")

    def __init__(self, index: int):
        self.index = index
        self.stack: List[list] = []      # frames: [child_seconds, span_id]
        self.depth: Dict[str, int] = {}
        self.totals: Dict[str, list] = {}  # name -> [calls, incl_s, self_s]
        self.counts: Dict[str, int] = {}
        self.next_id = 0


class Tracer:
    """Collects spans and per-name totals from the wrapped functions."""

    def __init__(self):
        self.spans: List[tuple] = []
        #: Spans are kept only while this is set (totals always count).
        self.keep_spans = False
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._installed: List[Tuple[object, str, object]] = []

    # -- per-thread state ------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
            return state

    def count(self, name: str) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + 1

    # -- wrappers ----------------------------------------------------------
    def timed(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"cannot time generator function {fn!r}")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            state.next_id += 1
            frame = [0.0, state.next_id]
            depth = state.depth
            outer = depth.get(name, 0)
            depth[name] = outer + 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] = outer
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                total = state.totals.get(name)
                if total is None:
                    total = state.totals[name] = [0, 0.0, 0.0]
                total[0] += 1
                if not outer:
                    total[1] += duration
                total[2] += duration - frame[0]
                if tracer.keep_spans and len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (name, start, end, state.index, frame[1],
                         parent[1] if parent is not None else 0))

        return wrapper

    def counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer._state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every listed function at every name that resolves to it."""
        import repro  # noqa: F401  (loads the package before patching)
        from repro.query import backends
        for module_name in ("repro.query.executor", "repro.query.ir",
                            "repro.query.fragments", "repro.query.parser",
                            "repro.storage.sharded", "repro.storage.heap",
                            "repro.access.btree_core", "repro.services.scatter",
                            "repro.services.remote", "repro.core.dispatch"):
            __import__(module_name)
        for name, sites in TIMED.items():
            for module_name, path in sites:
                self._patch(module_name, path,
                            lambda fn, n=name: self.timed(n, fn))
        for name, sites in COUNTED.items():
            for module_name, path in sites:
                self._patch(module_name, path,
                            lambda fn, n=name: self.counted(n, fn))
        self._patch(*FLUSH, self._flush_wrapper)
        # Kernel calls: every public primitive of the backend class a
        # default Database resolves to (inherited ones are wrapped on
        # that class, so a super() call inside one is not counted twice).
        backend_class = type(backends.resolve(None))
        for attr in sorted(vars(backends.KernelBackend)):
            if attr.startswith("_") or not callable(
                    getattr(backends.KernelBackend, attr)):
                continue
            original = getattr(backend_class, attr)
            wrapped = self.counted("query.backends.kernel_calls", original)
            setattr(backend_class, attr, wrapped)
            self._installed.append((backend_class, attr, original))

    def _flush_wrapper(self, fn):
        timed = self.timed("services.wal.flush", fn)
        tracer = self

        @functools.wraps(fn)
        def flush(log, *args, **kwargs):
            before = log.flushed_lsn
            try:
                return timed(log, *args, **kwargs)
            finally:
                if log.flushed_lsn != before:
                    tracer.count("services.wal.forces")

        return flush

    def _patch(self, module_name: str, path: str, make) -> None:
        module = sys.modules[module_name]
        owner = module
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        wrapped = make(original)
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, original))
        if owner is module:
            # Rebind ``from module import fn`` copies in other modules.
            for name, other in list(sys.modules.items()):
                if not name.startswith("repro") or other is module:
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
                        self._installed.append((other, key, original))

    def uninstall(self) -> None:
        """Restore every patched name (in reverse order of patching)."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- reading -------------------------------------------------------------
    def snapshot(self) -> Tuple[Dict[str, list], Dict[str, int]]:
        """Summed ``(totals, counts)`` over every thread seen so far."""
        totals: Dict[str, list] = {}
        counts: Dict[str, int] = {}
        for state in list(self._threads):
            for name, (calls, incl, own) in list(state.totals.items()):
                into = totals.setdefault(name, [0, 0.0, 0.0])
                into[0] += calls
                into[1] += incl
                into[2] += own
            for name, value in list(state.counts.items()):
                counts[name] = counts.get(name, 0) + value
        return totals, counts

    @staticmethod
    def delta(before, after):
        """``after - before`` of two snapshots."""
        totals_b, counts_b = before
        totals_a, counts_a = after
        totals = {}
        for name, (calls, incl, own) in totals_a.items():
            b = totals_b.get(name, [0, 0.0, 0.0])
            totals[name] = [calls - b[0], incl - b[1], own - b[2]]
        counts = {name: value - counts_b.get(name, 0)
                  for name, value in counts_a.items()}
        return totals, counts

    def dump(self, path) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, thread, span_id, parent in self.spans:
                out.write(json.dumps({"name": name, "start": start,
                                      "end": end, "thread": thread,
                                      "span": span_id,
                                      "parent": parent}) + "\n")
        return len(self.spans)
