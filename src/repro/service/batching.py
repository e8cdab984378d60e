"""Admission batching: coalesce a burst of cells into one backend fan-out.

Pool dispatch has a fixed cost (task pickling, pool scheduling, result
collection), so a burst of 100 single-cell submissions paying it 100 times
would throw away exactly the economy a shared service exists to provide.
The :class:`AdmissionBatcher` holds admitted cells for a short window (the
first admission arms the timer) and flushes them as *one* batch, which the
service hands to the cell executor, :func:`~repro.api.executor.
execute_cells` (re-exported here): one ``backend.map`` per engine worker, so
a burst of analytic cells costs one dispatch, a mixed mc/des burst costs one
(they share a worker), and a strategy burst costs one more.

Batching re-routes *when* cells execute, never *how*: the executor is the
one :func:`repro.api.evaluate` uses, each cell is planned in its own
context, and outputs are sliced per cell, so every batched result is
bit-identical to direct evaluation and stored under the identical key.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional

from repro.api.executor import BatchCell, ExecutedCell, execute_cells

__all__ = ["AdmissionBatcher", "BatchCell", "ExecutedCell", "execute_cells"]


class AdmissionBatcher:
    """Hold admitted entries for a window, then flush them as one batch.

    The first admission arms the window timer; reaching ``max_batch``
    flushes immediately.  ``flush`` is an async callable receiving the
    drained entry list — the service's flush coroutine, which executes the
    batch in a worker thread and resolves the entries' futures.  Entries
    are opaque to the batcher (it never looks inside them).
    """

    def __init__(self, flush: Callable[[List[object]], "asyncio.Future"],
                 window: float = 0.01, max_batch: int = 256) -> None:
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._flush = flush
        self.window = float(window)
        self.max_batch = int(max_batch)
        self._pending: List[object] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        self.batches = 0
        self.admitted = 0
        self.occupancy_total = 0

    def __len__(self) -> int:
        return len(self._pending)

    def admit(self, entry: object) -> None:
        """Queue *entry*; arm the window timer on a first admission."""
        self._pending.append(entry)
        self.admitted += 1
        if len(self._pending) >= self.max_batch:
            self._fire()
        elif self._timer is None:
            loop = asyncio.get_running_loop()
            self._timer = loop.call_later(self.window, self._fire)

    def _fire(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self.batches += 1
        self.occupancy_total += len(batch)
        asyncio.ensure_future(self._flush(batch))

    async def drain(self) -> None:
        """Flush anything pending now (shutdown path)."""
        self._fire()

    def stats(self) -> Dict[str, float]:
        occupancy = (self.occupancy_total / self.batches) if self.batches \
            else 0.0
        return {"admitted": self.admitted, "batches": self.batches,
                "pending": len(self._pending),
                "mean_occupancy": occupancy}
