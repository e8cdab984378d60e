"""The discrete-event simulation kernel.

A :class:`SimulationEngine` owns a virtual clock and a binary-heap event queue.
Work is expressed as plain callbacks (:meth:`SimulationEngine.schedule`), each
of which may schedule further callbacks.

The kernel is single-threaded and deterministic: events at equal times fire in the
order they were scheduled.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["SimulationEngine", "ScheduledCall"]


class ScheduledCall:
    """Handle returned by :meth:`SimulationEngine.schedule`; supports cancellation."""

    __slots__ = ("time", "seq", "cancelled")

    def __init__(self, time: float, seq: int) -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if it already ran)."""
        self.cancelled = True


class SimulationEngine:
    """Event loop with a virtual clock.

    Parameters
    ----------
    start_time:
        Initial clock value (default 0).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, ScheduledCall, Callable, tuple]] = []
        self._seq = itertools.count()
        self._processed = 0
        self._running = False

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of live events still queued.

        Cancelled entries stay in the heap until popped (cancellation only flags
        the handle), so they are filtered out here rather than counted.
        """
        return sum(1 for _time, _seq, handle, _cb, _args in self._queue
                   if handle is None or not handle.cancelled)

    # ------------------------------------------------------------------ scheduling
    def schedule(self, delay: float, callback: Callable, *args: Any) -> ScheduledCall:
        """Run ``callback(*args)`` after *delay* units of virtual time."""
        if delay < 0.0:
            raise ValueError("cannot schedule into the past")
        # Inlined schedule_at: a non-negative delay can never land in the past,
        # and this is the hottest allocation site of the kernel.
        handle = ScheduledCall(self._now + delay, next(self._seq))
        heapq.heappush(self._queue, (handle.time, handle.seq, handle, callback, args))
        return handle

    def schedule_fire(self, delay: float, callback: Callable, *args: Any) -> None:
        """Like :meth:`schedule`, but fire-and-forget: no cancellation handle.

        The recurring timer chains of the recovery runtimes never cancel their
        events, and the :class:`ScheduledCall` allocation is pure overhead at
        tens of thousands of events per run — queue entries carry ``None`` in
        the handle slot instead.
        """
        if delay < 0.0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._queue,
                       (self._now + delay, next(self._seq), None, callback, args))

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> ScheduledCall:
        """Run ``callback(*args)`` at absolute virtual time *time*."""
        if time < self._now - 1e-12:
            raise ValueError(f"cannot schedule at {time} < now ({self._now})")
        handle = ScheduledCall(time, next(self._seq))
        heapq.heappush(self._queue, (time, handle.seq, handle, callback, args))
        return handle

    # ------------------------------------------------------------------ running
    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        while self._queue:
            time, _seq, handle, callback, args = heapq.heappop(self._queue)
            if handle is not None and handle.cancelled:
                continue
            if time < self._now - 1e-12:  # pragma: no cover - defensive
                raise RuntimeError("event queue produced a time in the past")
            if time > self._now:
                self._now = time
            self._processed += 1
            callback(*args)
            return True
        return False

    def run_while(self, keep_going: Callable[[], bool], until: float) -> None:
        """Step until the queue drains, the clock reaches *until*, or
        ``keep_going()`` turns False (checked once before every event, exactly
        like an external ``while keep_going(): step()`` loop, minus the
        per-event function-call overhead of :meth:`step`).
        """
        queue = self._queue
        pop = heapq.heappop
        while queue and self._now < until and keep_going():
            time, _seq, handle, callback, args = pop(queue)
            if handle is not None and handle.cancelled:
                continue
            if time > self._now:
                self._now = time
            self._processed += 1
            callback(*args)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, *until* is reached, or *max_events* executed.

        Returns the clock value when the run stops.  When *until* is given the
        clock is advanced to exactly *until* even if the last event fired earlier.
        """
        if self._running:
            raise RuntimeError("run() is not re-entrant")
        self._running = True
        executed = 0
        try:
            while self._queue:
                next_time = self._peek_time()
                if until is not None and next_time is not None and next_time > until:
                    break
                if not self.step():
                    break
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = float(until)
        return self._now

    def _peek_time(self) -> Optional[float]:
        while self._queue:
            time, _seq, handle, _cb, _args = self._queue[0]
            if handle is not None and handle.cancelled:
                heapq.heappop(self._queue)
                continue
            return time
        return None

    def drain(self) -> float:
        """Run until no events remain; returns the final clock value."""
        return self.run(until=None)
