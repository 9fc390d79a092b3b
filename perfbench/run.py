"""End-to-end benchmark of the engine: one workload per run, one client.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 16 --trace 0

The run generates the workload's rows from ``--seed`` and plans a fixed
sequence of operations in whole rounds, with every expected result taken
from an independent oracle.  After one untimed build and restart, which pay
the process's first-use costs, it runs :data:`EPOCHS` epochs.  An epoch
builds the workload's database(s) afresh (timed: one ``setup_s`` sample),
runs the warm-up rounds, collects garbage once, and drives the timed rounds
from one thread in a closed loop; it then crash-restarts every database of
the workload (timed: one ``restart_s`` sample) and compares the full
relation contents with the oracle.  Every epoch builds from the same rows
and runs the same operations, so each operation is timed once per epoch on
the same work, and its latency is the median of those samples, spread over
the whole run: a shared host slows the engine in spells, and one or two
slow epochs do not move a median.  ``setup_s`` and ``restart_s`` are the
medians of the epochs' samples.

``--seconds`` fixes the amount of work, not a deadline: an epoch runs
``seconds * rounds_per_second / EPOCHS`` timed rounds of the workload, so
every run with the same arguments does identical work and a faster engine
simply finishes sooner.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: it runs one epoch untraced, then installs span
tracing (``tracing.py``) and runs :data:`TRACED_EPOCHS` more; the ratio of
their timed phases is reported as ``tracing.overhead_pct``.  The spans of
the traced timed phases are written to ``perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation fails
when it raises, when its result differs from the oracle's, or when it
bumps a fallback counter (a silent re-run on another path).
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import resource
import statistics
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import List, NamedTuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Epochs of an untraced run; each gives one ``setup_s`` and one
#: ``restart_s`` sample, and one latency sample of every timed operation.
EPOCHS = 4
#: Traced epochs of a traced run, after its one untraced epoch.
TRACED_EPOCHS = 2
#: Counters that mean a query silently re-ran on another execution path.
FALLBACK_COUNTERS = ("executor.columnar.fallbacks",
                     "executor.pushdown.fallbacks",
                     "sharded.pushdown.fallbacks")

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "read_p50_ms": "ms",
    "write_p50_ms": "ms",
    "setup_s": "s",
    "restart_s": "s",
    "disk_bytes_per_row": "B/row",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: ``*_per_op`` values are divided by the number of
#: timed operations, ``*_per_setup`` ones cover one whole build,
#: ``*_per_restart`` and ``services.recovery.*`` one whole-cluster restart,
#: and ``storage.sharded.pushdown_*`` one epoch.
PER_LAYER = {
    "query.plans.hit_ratio": "ratio",
    "query.parser.ms_per_op": "ms",
    "query.executor.self_ms_per_op": "ms",
    "query.ir.run_ms_per_op": "ms",
    "query.backends.kernel_calls_per_op": "count",
    "query.fragments.merge_ms_per_op": "ms",
    "storage.sharded.run_fragment_ms_per_op": "ms",
    "storage.sharded.pushdown_queries": "count",
    "storage.sharded.pushdown_gated_off": "count",
    "services.scatter.run_ms_per_op": "ms",
    "services.remote.calls_per_op": "count",
    "core.dispatch.calls_per_op": "count",
    "core.dispatch.self_ms_per_op": "ms",
    "core.records.decode_calls_per_op": "count",
    "core.records.decode_ms_per_op": "ms",
    "core.records.decode_ms_per_restart": "ms",
    "core.records.encode_ms_per_op": "ms",
    "core.records.encode_ms_per_setup": "ms",
    "storage.heap.next_batch_ms_per_op": "ms",
    "storage.heap.insert_ms_per_op": "ms",
    "storage.heap.insert_ms_per_setup": "ms",
    "access.btree.search_ms_per_op": "ms",
    "access.btree.insert_ms_per_op": "ms",
    "access.btree.insert_ms_per_setup": "ms",
    "access.btree.insert_ms_per_restart": "ms",
    "services.pages.insert_ms_per_op": "ms",
    "services.pages.insert_ms_per_setup": "ms",
    "services.pages.slot_reads_per_insert": "count",
    "services.pages.slot_reads_per_setup_insert": "count",
    "services.buffer.fetch_calls_per_op": "count",
    "services.buffer.hit_ratio": "ratio",
    "services.disk.reads_per_op": "count",
    "services.locks.acquire_calls_per_op": "count",
    "services.locks.acquire_ms_per_op": "ms",
    "services.wal.appends_per_op": "count",
    "services.wal.flushes_per_op": "count",
    "services.wal.flush_ms_per_op": "ms",
    "services.transactions.commit_ms_per_op": "ms",
    "services.transactions.prepare_ms_per_op": "ms",
    "services.recovery.restart_ms": "ms",
    "services.recovery.redo_records": "count",
    "services.recovery.analysis_records": "count",
    "services.stats.bumps_per_op": "count",
    "tracing.overhead_pct": "%",
}


def _import_engine() -> None:
    """Import the engine from this checkout's ``src/``, and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: engine source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


# -- measurement helpers ------------------------------------------------------
def _counter_sum(workload, names) -> int:
    return sum(db.services.stats.get(name)
               for db in workload.databases() for name in names)


def _stats_snapshot(workload):
    return [db.services.stats.snapshot() for db in workload.databases()]


def _stats_delta(workload, before) -> Counter:
    """Counter changes since ``before``, summed over every database."""
    total = Counter()
    for db, snapshot in zip(workload.databases(), before):
        total.update(db.services.stats.delta(snapshot))
    return total


class _Layer:
    """Tracer totals and counts, and engine counters, summed over every
    stretch of a traced run measured with :meth:`measure`."""

    def __init__(self, workload, tracer, keep_spans: bool = False):
        self.workload = workload
        self.tracer = tracer
        self.keep_spans = keep_spans
        self.totals = {}      # name -> [calls, inclusive s, self s]
        self.counts = Counter()
        self.stats = Counter()

    @contextmanager
    def measure(self, stats: bool = True):
        """``stats=False`` where the workload has no database yet."""
        stats_before = _stats_snapshot(self.workload) if stats else None
        trace_before = self.tracer.snapshot()
        self.tracer.keep_spans = self.keep_spans
        try:
            yield
        finally:
            self.tracer.keep_spans = False
        totals, counts = self.tracer.delta(trace_before,
                                           self.tracer.snapshot())
        for name, values in totals.items():
            into = self.totals.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                into[i] += value
        self.counts.update(counts)
        if stats:
            self.stats.update(_stats_delta(self.workload, stats_before))


def _run_ops(workload, ops):
    """Run ``ops`` back to back; returns (outcomes, latencies, elapsed).

    An outcome is ``(result, error, fell_back)``; results are compared with
    the oracle afterwards so the comparison is not timed.
    """
    outcomes, latencies = [], []
    execute = workload.execute
    started = perf_counter()
    for op in ops:
        guard = _counter_sum(workload, FALLBACK_COUNTERS)
        began = perf_counter()
        try:
            result, error = execute(op), None
        except Exception as exc:  # an operation's failure is data here
            result, error = None, exc
        latencies.append(perf_counter() - began)
        outcomes.append((result, error,
                         _counter_sum(workload, FALLBACK_COUNTERS) != guard))
    return outcomes, latencies, perf_counter() - started


def _judge(ops, outcomes):
    """(failed, wrong): failed counts every failed operation; wrong counts
    those whose result disagreed with the oracle."""
    from oracle import rows_equal
    failed = wrong = 0
    for op, (result, error, fell_back) in zip(ops, outcomes):
        if error is None and not fell_back:
            if isinstance(op.expected, int):
                ok = result == op.expected
            else:
                ok = rows_equal(result, op.expected, op.ordered)
            if ok:
                continue
            wrong += 1
            if wrong <= 3:
                print(f"perfbench: mismatch on {op.sql or 'insert_many'} "
                      f"{op.params if op.sql else ''}", file=sys.stderr)
        elif error is not None and failed < 3:
            print(f"perfbench: {type(error).__name__}: {error} on {op.sql}",
                  file=sys.stderr)
        failed += 1
    return failed, wrong


def _timed_phase(workload, ops, layer=None):
    """Run ``ops`` in order.  Probe operations are run and judged like the
    others but measured apart: ``elapsed`` is the wall time of the other
    operations, and only they are measured into ``layer``.  Returns
    (outcomes, latencies, elapsed)."""
    outcomes, latencies, elapsed = [], [], 0.0
    for probe, group in itertools.groupby(ops,
                                          key=lambda op: op.kind == "probe"):
        measured = layer is not None and not probe
        with layer.measure() if measured else nullcontext():
            out, lat, took = _run_ops(workload, list(group))
        outcomes += out
        latencies += lat
        if not probe:
            elapsed += took
    return outcomes, latencies, elapsed


def _percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _disk_bytes(workload) -> int:
    return sum(db.services.disk.allocated_pages * db.services.disk.page_size
               for db in workload.databases())


def _fmt(seconds) -> str:
    return "[" + ", ".join(f"{value:.3f}" for value in seconds) + "]"


def _plan(workload, rounds: int):
    """(warm-up, timed, checks) operations of every epoch."""
    ops = workload.plan(workload.warmup_rounds + rounds)
    per_round = len(ops) // (workload.warmup_rounds + rounds)
    split = workload.warmup_rounds * per_round
    return ops[:split], ops[split:], workload.final_checks()


class Epoch(NamedTuple):
    outcomes: list      # of every operation: warm-up, timed, checks
    latencies: list     # of the timed operations
    elapsed: float      # wall time of the timed operations but the probes
    setup_s: float
    restart_s: float
    disk_bytes: int     # after the timed operations


def _epoch(workload, plan, layers=None) -> Epoch:
    """Build, warm up, run the timed operations, restart, check.  With
    ``layers`` (a :class:`_Layer` per phase), each phase is traced."""
    warmup, timed, checks = plan

    def phase(name, stats=True):
        return layers[name].measure(stats) if layers else nullcontext()

    workload.drop()
    gc.collect()
    with phase("setup", stats=False):
        began = perf_counter()
        workload.build()
        setup_s = perf_counter() - began
    warm_outcomes, __, __ = _run_ops(workload, warmup)
    gc.collect()
    outcomes, latencies, elapsed = _timed_phase(
        workload, timed, layers["timed"] if layers else None)
    disk = _disk_bytes(workload)
    gc.collect()
    with phase("restart"):
        began = perf_counter()
        workload.restart()
        restart_s = perf_counter() - began
    check_outcomes, __, __ = _run_ops(workload, checks)
    return Epoch(warm_outcomes + outcomes + check_outcomes, latencies,
                 elapsed, setup_s, restart_s, disk)


def _start(workload, rounds: int):
    """Plan the epochs' operations, then build and restart once, untimed."""
    plan = _plan(workload, rounds)
    workload.build()
    workload.restart()
    return plan


def _judge_epochs(plan, epochs: List[Epoch]):
    """(attempted, failed, wrong) over every operation of ``epochs``, each
    of which ran ``plan``."""
    ops = [op for part in plan for op in part] * len(epochs)
    failed, wrong = _judge(ops, [outcome for epoch in epochs
                                 for outcome in epoch.outcomes])
    return len(ops), failed, wrong


# -- the two kinds of run ----------------------------------------------------
def measure(workload, rounds: int, epochs: int):
    """The untraced run: end-to-end metrics."""
    plan = _start(workload, rounds)
    runs = [_epoch(workload, plan) for __ in range(epochs)]

    # Each operation's latency: the median of its samples, one per epoch.
    medians = [statistics.median(samples)
               for samples in zip(*(run.latencies for run in runs))]
    by_kind = {}
    for op, latency in zip(plan[1], medians):
        by_kind.setdefault(op.kind, []).append(latency)
    reads = by_kind.get("read", [])
    # A workload without writes of its own reports its probe writes.
    writes = by_kind.get("write") or by_kind["probe"]
    latencies = reads + by_kind.get("write", [])
    setups = [run.setup_s for run in runs]
    restarts = [run.restart_s for run in runs]
    metrics = {
        # One client in a closed loop: the timed operations over the sum
        # of their latencies.
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p95_ms": _percentile(latencies, 0.95) * 1e3,
        "read_p50_ms": statistics.median(reads) * 1e3,
        "write_p50_ms": statistics.median(writes) * 1e3,
        "setup_s": statistics.median(setups),
        "restart_s": statistics.median(restarts),
        "disk_bytes_per_row": runs[-1].disk_bytes / workload.row_count(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    print(f"perfbench: {workload.name} {epochs} epochs of {rounds} rounds: "
          f"setups {_fmt(setups)} s, restarts {_fmt(restarts)} s, timed "
          f"operations {_fmt(run.elapsed for run in runs)} s, per-operation "
          f"medians {sum(latencies):.3f} s", file=sys.stderr)
    attempted, failed, wrong = _judge_epochs(plan, runs)
    return attempted, failed, wrong, {
        name: (value, END_TO_END[name]) for name, value in metrics.items()}


def measure_traced(workload, rounds: int, trace_path: Path):
    """The traced run: per-layer metrics and the tracing overhead."""
    from tracing import Tracer

    epochs = TRACED_EPOCHS
    plan = _start(workload, rounds)
    plain = _epoch(workload, plan)
    tracer = Tracer()
    layers = {"setup": _Layer(workload, tracer),
              "timed": _Layer(workload, tracer, keep_spans=True),
              "restart": _Layer(workload, tracer)}
    tracer.install()
    try:
        runs = [_epoch(workload, plan, layers) for __ in range(epochs)]
    finally:
        tracer.uninstall()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_path)

    n = sum(op.kind != "probe" for op in plan[1]) * epochs
    elapsed = sum(run.elapsed for run in runs) / epochs
    timed = layers["timed"]
    totals, counts, stats = timed.totals, timed.counts, timed.stats
    setup_totals = layers["setup"].totals
    restart_totals = layers["restart"].totals
    restart_stats = layers["restart"].stats

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def ms(name, own=False, layer=timed, per=n):
        """Inclusive (or self) milliseconds of ``name`` in ``layer`` (the
        timed phase by default), divided by ``per`` (default: per op)."""
        values = layer.totals.get(name, [0, 0.0, 0.0])
        return values[2 if own else 1] * 1e3 / per

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    def stat(name):
        return stats.get(name, 0)

    def slot_reads_per_insert(layer):
        inserts = layer.totals.get("services.pages.insert", [0])[0]
        reads = layer.counts.get("services.pages.slot_reads", 0)
        return reads / inserts if inserts else 0.0

    setup, restart = layers["setup"], layers["restart"]
    metrics = {
        "query.plans.hit_ratio": ratio(
            stat("plan_cache.hits"), stat("plan_cache.translations")
            + stat("plan_cache.retranslations")),
        "query.parser.ms_per_op": ms("query.parser.parse"),
        "query.executor.self_ms_per_op": ms("query.executor", own=True),
        "query.ir.run_ms_per_op": ms("query.ir.run"),
        "query.backends.kernel_calls_per_op":
            counts.get("query.backends.kernel_calls", 0) / n,
        "query.fragments.merge_ms_per_op": ms("query.fragments.merge"),
        "storage.sharded.run_fragment_ms_per_op":
            ms("storage.sharded.run_fragment"),
        "storage.sharded.pushdown_queries":
            stat("sharded.pushdown.queries") / epochs,
        "storage.sharded.pushdown_gated_off":
            stat("sharded.pushdown.gated_off") / epochs,
        "services.scatter.run_ms_per_op": ms("services.scatter.run"),
        "services.remote.calls_per_op": calls("services.remote.call") / n,
        "core.dispatch.calls_per_op": calls("core.dispatch") / n,
        "core.dispatch.self_ms_per_op": ms("core.dispatch", own=True),
        "core.records.decode_calls_per_op": calls("core.records.decode") / n,
        "core.records.decode_ms_per_op": ms("core.records.decode"),
        "core.records.decode_ms_per_restart": ms(
            "core.records.decode", layer=restart, per=epochs),
        "core.records.encode_ms_per_op": ms("core.records.encode"),
        "core.records.encode_ms_per_setup": ms(
            "core.records.encode", layer=setup, per=epochs),
        "storage.heap.next_batch_ms_per_op": ms("storage.heap.next_batch"),
        "storage.heap.insert_ms_per_op": ms("storage.heap.insert"),
        "storage.heap.insert_ms_per_setup": ms(
            "storage.heap.insert", layer=setup, per=epochs),
        "access.btree.search_ms_per_op": ms("access.btree.search"),
        "access.btree.insert_ms_per_op": ms("access.btree.insert"),
        "access.btree.insert_ms_per_setup": ms(
            "access.btree.insert", layer=setup, per=epochs),
        "access.btree.insert_ms_per_restart": ms(
            "access.btree.insert", layer=restart, per=epochs),
        "services.pages.insert_ms_per_op": ms("services.pages.insert"),
        "services.pages.insert_ms_per_setup": ms(
            "services.pages.insert", layer=setup, per=epochs),
        "services.pages.slot_reads_per_insert": slot_reads_per_insert(timed),
        "services.pages.slot_reads_per_setup_insert":
            slot_reads_per_insert(setup),
        "services.buffer.fetch_calls_per_op":
            calls("services.buffer.fetch") / n,
        "services.buffer.hit_ratio": ratio(stat("buffer.hits"),
                                           stat("buffer.misses")),
        "services.disk.reads_per_op": stat("disk.reads") / n,
        "services.locks.acquire_calls_per_op": stat("locks.acquire_calls") / n,
        "services.locks.acquire_ms_per_op": ms("services.locks.acquire"),
        "services.wal.appends_per_op": calls("services.wal.append") / n,
        "services.wal.flushes_per_op":
            counts.get("services.wal.forces", 0) / n,
        "services.wal.flush_ms_per_op": ms("services.wal.flush"),
        "services.transactions.commit_ms_per_op":
            ms("services.transactions.commit"),
        "services.transactions.prepare_ms_per_op":
            ms("services.transactions.prepare"),
        "services.recovery.restart_ms": ms(
            "services.recovery.restart", layer=restart, per=epochs),
        "services.recovery.redo_records":
            restart_stats.get("recovery.redo.applied", 0) / epochs,
        "services.recovery.analysis_records":
            restart_stats.get("recovery.analysis.records", 0) / epochs,
        "services.stats.bumps_per_op":
            counts.get("services.stats.bumps", 0) / n,
        "tracing.overhead_pct": (elapsed / plain.elapsed - 1.0) * 100.0,
    }
    print(f"perfbench: {workload.name} traced timed phase {elapsed:.3f}s "
          f"vs {plain.elapsed:.3f}s untraced, {len(tracer.spans)} spans kept",
          file=sys.stderr)
    attempted, failed, wrong = _judge_epochs(plan, [plain] + runs)
    return attempted, failed, wrong, {
        name: (value, PER_LAYER[name]) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="two epochs of one round on small inputs "
                             "(self-check)")
    args = parser.parse_args(argv)
    _import_engine()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload](args.seed, args.small)
    rounds = max(1, round(args.seconds * workload.rounds_per_second
                          / EPOCHS))
    epochs = EPOCHS
    if args.small:
        rounds, epochs = 1, 2
    try:
        if args.trace:
            trace_path = HERE / "traces" / \
                f"{args.workload}-seed{args.seed}.jsonl"
            attempted, failed, wrong, metrics = measure_traced(
                workload, rounds, trace_path)
        else:
            attempted, failed, wrong, metrics = measure(workload, rounds,
                                                        epochs)
    finally:
        from repro.services.scatter import shared_pool
        shared_pool().close()  # join the scatter-gather worker threads
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
