"""Execution backends: where replication tasks actually run.

A backend exposes one operation, :meth:`ExecutionBackend.map`, with the same
contract as the built-in ``map``: apply a picklable top-level function to a
sequence of picklable tasks and return the results *in task order*.  Because
every task carries its own pre-spawned seed and ordering is preserved, a
scenario produces bit-identical results on every backend.

``SerialBackend`` runs tasks inline; ``ProcessPoolBackend`` fans them out over
a :class:`concurrent.futures.ProcessPoolExecutor`.
"""

from __future__ import annotations

import abc
import os
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar, Union

__all__ = ["ExecutionBackend", "SerialBackend", "ProcessPoolBackend", "make_backend"]

T = TypeVar("T")
R = TypeVar("R")


class ExecutionBackend(abc.ABC):
    """Strategy for executing a batch of independent replication tasks."""

    #: CLI identifier (``--backend <name>``).
    name: str = "abstract"

    @abc.abstractmethod
    def map(self, func: Callable[[T], R], tasks: Iterable[T]) -> List[R]:
        """Apply *func* to every task, returning results in task order."""

    def describe(self) -> str:
        return self.name


class SerialBackend(ExecutionBackend):
    """Run every task in the driver process, one after another."""

    name = "serial"

    def map(self, func: Callable[[T], R], tasks: Iterable[T]) -> List[R]:
        return [func(task) for task in tasks]


class ProcessPoolBackend(ExecutionBackend):
    """Shard tasks across worker processes via :mod:`concurrent.futures`.

    Task functions and task payloads must be picklable (top-level functions and
    plain dataclasses — which is how the built-in scenarios express their
    shards).  Results come back in submission order, so output is bit-identical
    to :class:`SerialBackend` for the same task list.

    Parameters
    ----------
    workers:
        Worker-process count; ``None`` uses ``os.cpu_count()``.
    chunksize:
        Tasks handed to a worker per round-trip; ``None`` picks
        ``ceil(len(tasks) / (4 * workers))`` (at least 1) to amortise IPC
        without starving the pool.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None,
                 chunksize: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        self.workers = workers
        self.chunksize = chunksize

    def _effective_workers(self, n_tasks: int) -> int:
        workers = self.workers if self.workers is not None else (os.cpu_count() or 1)
        return max(1, min(workers, n_tasks))

    def map(self, func: Callable[[T], R], tasks: Iterable[T]) -> List[R]:
        tasks = list(tasks)
        if not tasks:
            return []
        workers = self._effective_workers(len(tasks))
        if workers == 1:
            # Nothing to fan out; skip the pool (and its pickling round-trip).
            return [func(task) for task in tasks]
        chunksize = self.chunksize
        if chunksize is None:
            chunksize = max(1, -(-len(tasks) // (4 * workers)))
        # Imported here: it loads multiprocessing, which a serial process
        # never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(func, tasks, chunksize=chunksize))

    def describe(self) -> str:
        return f"process(workers={self.workers or os.cpu_count() or 1})"


def make_backend(backend: Union[str, ExecutionBackend, None] = None,
                 workers: Optional[int] = None) -> ExecutionBackend:
    """Coerce a CLI-ish backend designation into an :class:`ExecutionBackend`.

    ``None`` and ``"serial"`` give :class:`SerialBackend`; ``"process"`` (or a
    *workers* count with no backend name) gives :class:`ProcessPoolBackend`.
    An already-constructed backend passes through (``workers`` must then be
    ``None`` — the instance owns its configuration).
    """
    if isinstance(backend, ExecutionBackend):
        if workers is not None:
            raise ValueError("pass workers to the backend constructor, not both")
        return backend
    if backend is None:
        return ProcessPoolBackend(workers=workers) if workers is not None \
            else SerialBackend()
    if backend == SerialBackend.name:
        if workers is not None:
            raise ValueError("the serial backend has no workers")
        return SerialBackend()
    if backend == ProcessPoolBackend.name:
        return ProcessPoolBackend(workers=workers)
    raise ValueError(f"unknown backend {backend!r}; expected "
                     f"'{SerialBackend.name}' or '{ProcessPoolBackend.name}'")
