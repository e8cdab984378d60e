"""Spans and counters for the traced benchmark runs.

The benchmark measures each layer of ``repro`` from outside: :func:`install`
replaces public functions and methods with thin wrappers that record a span
(id, parent, name, start, end) around every call, while the recorder is
enabled.  Nothing inside ``src/repro`` changes.

* Spans live in memory and are written once, by :meth:`Recorder.dump`, when
  the traced process ends.
* Work shipped to pool workers is wrapped per task by the traced
  ``ProcessPoolBackend.map``; each worker appends its task spans to its own
  ``worker-<pid>.jsonl`` file, so nothing is lost when the pool shuts down.
* Span ids embed the process id, so traces of several processes merge
  without clashes; times are ``time.perf_counter`` (CLOCK_MONOTONIC on
  Linux), comparable across the processes of one machine.

A layer's *self time* is its spans' durations minus the time their direct
child spans cover (:func:`layer_totals`).
"""

from __future__ import annotations

import contextvars
import functools
import glob
import importlib
import inspect
import json
import os
import pickle
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional

#: Wrapped call sites: (module, attribute path, span name).  Module-level
#: functions are re-bound in every loaded ``repro`` module that imported
#: them by name; methods are replaced on their class.
LAYERS = (
    ("repro.api.spec", "StudySpec.from_dict", "api.spec.resolve"),
    ("repro.api.spec", "StudySpec.cells", "api.spec.resolve"),
    ("repro.api.strategy", "StrategyEvaluator.tasks", "api.strategy.plan"),
    ("repro.api.strategy", "StrategyEvaluator.cell_tasks",
     "api.strategy.plan"),
    ("repro.api.strategy", "StrategyEvaluator.assemble", "api.assemble"),
    ("repro.api.evaluators", "_StochasticEvaluator.assemble", "api.assemble"),
    ("repro.markov.generator", "build_phase_type", "markov.assembly"),
    ("repro.markov.operators", "DenseTransientOperator.solve",
     "markov.solve_dense"),
    ("repro.markov.operators", "DenseTransientOperator.solve_transpose",
     "markov.solve_dense"),
    ("repro.markov.operators", "DenseTransientOperator.expm_states",
     "markov.solve_dense"),
    ("repro.markov.operators", "SparseTransientOperator.expm_states",
     "markov.solve_krylov"),
    ("repro.report.store", "ResultStore.put", "report.store.put"),
    ("repro.report.store", "ResultStore.get", "report.store.get"),
    ("repro.report.sharded", "ShardedResultStore.put", "report.store.put"),
    ("repro.report.sharded", "ShardedResultStore.get", "report.store.get"),
    ("repro.warehouse.etl", "load_store", "warehouse.etl.load"),
    ("repro.service.session", "EvaluationService.submit", "service.submit"),
)

#: Sparse solves split by regime: exact LU up to the operator's LU limit,
#: preconditioned Krylov above it.
SPARSE_SOLVES = ("SparseTransientOperator.solve",
                 "SparseTransientOperator.solve_transpose")


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = trace_dir
        self.enabled = False
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self.admitted: Dict[int, float] = {}
        #: Call sites :func:`install` could not find (a refactored program);
        #: their layers read 0 and the report lists them.
        self.missing: List[str] = []
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        self._next = 0

    def begin(self, name: str, root: bool = False):
        """Open a span; returns the record and the token :meth:`end` needs."""
        self._next += 1
        pid = os.getpid()
        sid = pid * 1_000_000_000 + self._next
        parent = 0 if root else self._current.get()
        record = [sid, parent, name, time.perf_counter(), 0.0, pid, None]
        self.spans.append(record)
        return record, self._current.set(sid)

    def end(self, record: list, token) -> None:
        record[4] = time.perf_counter()
        self._current.reset(token)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def dump(self, extra: Optional[Dict[str, object]] = None) -> None:
        """Write this process's spans and counters to the trace directory."""
        path = os.path.join(self.trace_dir, f"proc-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans,
                       "counters": self.counters,
                       "extra": {**(extra or {}), "missing": self.missing}},
                      handle)


def _wrap(rec: Recorder, fn: Callable, name, *, root: bool = False,
          materialize: bool = False) -> Callable:
    """A wrapper recording a span named *name* (or ``name(args)``)."""
    namer = name if callable(name) else (lambda *_a: name)
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not rec.enabled:
                return await fn(*args, **kwargs)
            record, token = rec.begin(namer(*args), root)
            try:
                return await fn(*args, **kwargs)
            finally:
                rec.end(record, token)
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        record, token = rec.begin(namer(*args), root)
        try:
            if materialize:
                # A generator's work happens while it is consumed: drain it
                # inside the span.
                return iter(list(fn(*args, **kwargs)))
            return fn(*args, **kwargs)
        finally:
            rec.end(record, token)
    return wrapper


def _patch(rec: Recorder, module_name: str, path: str,
           make: Callable[[Callable], Callable]) -> None:
    try:
        module = importlib.import_module(module_name)
        if "." not in path:
            original = getattr(module, path)
        else:
            class_name, attr = path.split(".")
            cls = getattr(module, class_name)
            raw = cls.__dict__[attr]
    except (ImportError, AttributeError, KeyError):
        rec.missing.append(f"{module_name}.{path}")
        return
    if "." not in path:
        replacement = make(original)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(loaded, path, None) is original:
                setattr(loaded, path, replacement)
    elif isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def worker_call(func: Callable, parent: int, trace_dir: str, task):
    """Pool-side task wrapper: run *task*, append its span to a per-pid file."""
    start = time.perf_counter()
    result = func(task)
    end = time.perf_counter()
    pid = os.getpid()
    with open(os.path.join(trace_dir, f"worker-{pid}.jsonl"), "a",
              encoding="utf-8") as handle:
        handle.write(json.dumps([0, parent, "runner.worker_task", start, end,
                                 pid, None]) + "\n")
    return result


def _tally_reports(rec: Recorder, outputs: Iterable) -> None:
    """Runtime counters from the ``RunReport`` lists strategy tasks return."""
    from repro.recovery.report import RunReport
    for chunk in outputs:
        if not isinstance(chunk, list):
            continue
        for report in chunk:
            if not isinstance(report, RunReport):
                continue
            rec.count("recovery.replications")
            rec.count("recovery.rollbacks", report.rollback_count)
            rec.count("recovery.total_saves", report.total_saves)
            rec.count("recovery.recovery_lines",
                      report.recovery_lines_committed)


def install(rec: Recorder) -> None:
    """Install every wrapper; they record only while ``rec.enabled``."""
    for module_name, path, name in LAYERS:
        materialize = path.endswith(".cells")
        _patch(rec, module_name, path,
               lambda fn, name=name, materialize=materialize:
               _wrap(rec, fn, name, materialize=materialize))

    def sparse_regime(operator, *_args):
        from repro.markov.operators import SPARSE_LU_LIMIT
        return "markov.solve_sparse_lu" if operator.order <= SPARSE_LU_LIMIT \
            else "markov.solve_krylov"
    for path in SPARSE_SOLVES:
        _patch(rec, "repro.markov.operators", path,
               lambda fn: _wrap(rec, fn, sparse_regime))

    import concurrent.futures
    pool_init = concurrent.futures.ProcessPoolExecutor.__init__

    @functools.wraps(pool_init)
    def counted_init(self, *args, **kwargs):
        if rec.enabled:
            rec.count("runner.backends.pool_starts")
        pool_init(self, *args, **kwargs)
    concurrent.futures.ProcessPoolExecutor.__init__ = counted_init

    def traced_map(pool_map):
        @functools.wraps(pool_map)
        def wrapper(self, func, tasks):
            if not rec.enabled:
                return pool_map(self, func, tasks)
            tasks = list(tasks)
            workers = max(1, min(self.workers or os.cpu_count() or 1,
                                 len(tasks)))
            if workers > 1:
                rec.count("runner.backends.task_bytes",
                          sum(len(pickle.dumps(task)) for task in tasks))
            record, token = rec.begin("runner.backends.map")
            record[6] = {"workers": workers}
            try:
                outputs = pool_map(self, functools.partial(
                    worker_call, func, record[0], rec.trace_dir), tasks)
            finally:
                rec.end(record, token)
            _tally_reports(rec, outputs)
            return outputs
        return wrapper
    _patch(rec, "repro.runner.backends", "ProcessPoolBackend.map", traced_map)

    def stamped_admit(admit):
        @functools.wraps(admit)
        def wrapper(self, entry):
            if rec.enabled:
                rec.admitted[id(getattr(entry, "cell", entry))] = \
                    time.perf_counter()
            admit(self, entry)
        return wrapper
    _patch(rec, "repro.service.batching", "AdmissionBatcher.admit",
           stamped_admit)

    def traced_execute(fn):
        spanned = _wrap(rec, fn, "service.execute", root=True)

        @functools.wraps(fn)
        def wrapper(backend, cells):
            if rec.enabled:
                now = time.perf_counter()
                for cell in cells:
                    admitted = rec.admitted.pop(id(cell), None)
                    if admitted is not None:
                        rec.count("service.batching.wait_s", now - admitted)
                        rec.count("service.batching.waited_cells")
            return spanned(backend, cells)
        return wrapper
    _patch(rec, "repro.service.batching", "execute_cells", traced_execute)


# --------------------------------------------------------------- analysis
def load(trace_dir: str):
    """Every span and summed counters from a trace directory."""
    spans: List[list] = []
    counters: Dict[str, float] = {}
    extras: List[Dict[str, object]] = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "proc-*.json"))):
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        spans.extend(payload["spans"])
        for name, value in payload["counters"].items():
            counters[name] = counters.get(name, 0) + value
        extras.append(payload["extra"])
    for path in sorted(glob.glob(os.path.join(trace_dir, "worker-*.jsonl"))):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans, counters, extras


def layer_totals(spans: List[list], start: float = float("-inf"),
                 end: float = float("inf")) -> Dict[str, Dict[str, float]]:
    """Per span name: ``self_s``, ``total_s`` and ``calls`` (outermost calls).

    Only finished spans that start inside ``[start, end]`` count.  Worker
    task spans are excluded from their parent's self time: they overlap it
    in parallel rather than nest in it.
    """
    chosen = [s for s in spans if s[4] > 0.0 and start <= s[3] <= end]
    by_id = {s[0]: s for s in chosen if s[0]}
    child_time: Dict[int, float] = {}
    for s in chosen:
        if s[1] in by_id and s[2] != "runner.worker_task":
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[4] - s[3])
    totals: Dict[str, Dict[str, float]] = {}
    for s in chosen:
        entry = totals.setdefault(s[2], {"self_s": 0.0, "total_s": 0.0,
                                         "calls": 0})
        duration = s[4] - s[3]
        entry["self_s"] += max(0.0, duration - child_time.get(s[0], 0.0))
        parent = by_id.get(s[1])
        if parent is None or parent[2] != s[2]:
            entry["total_s"] += duration
            entry["calls"] += 1
    return totals


def dispatch_wait_s(spans: List[list]) -> float:
    """Pool map wall minus worker busy time per worker, summed over maps."""
    maps = {s[0]: s for s in spans
            if s[2] == "runner.backends.map" and s[4] > 0.0}
    busy: Dict[int, float] = {}
    for s in spans:
        if s[2] == "runner.worker_task" and s[1] in maps:
            busy[s[1]] = busy.get(s[1], 0.0) + (s[4] - s[3])
    return sum((s[4] - s[3]) - busy.get(sid, 0.0) / s[6]["workers"]
               for sid, s in maps.items())
