"""Discrete-event simulation substrate.

The paper's authors evaluated their models with an in-house simulation whose code
is not available; this package provides the replacement substrate: a deterministic,
seedable discrete-event kernel with named random streams and measurement
utilities.  The recovery-block runtimes of :mod:`repro.recovery` and the
interval sampler are ordinary users of this kernel.

Design notes
------------
* Concurrency is *simulated*: a single event loop advances virtual time.  This is
  deliberate — the paper's quantities depend only on the stochastic model, and a
  real-thread implementation in CPython would add GIL noise without adding fidelity.
* Determinism: given a seed, every run is bit-for-bit reproducible; the event queue
  breaks ties by insertion order.
* The kernel is callback-driven: a runtime schedules plain callbacks
  (``engine.schedule(delay, callback, *args)``), and each callback schedules the
  next events of its process.
"""

from repro.sim.engine import SimulationEngine
from repro.sim.random_streams import RandomStreams
from repro.sim.monitor import Counter, TimeWeightedStat, Tally, Monitor
from repro.sim.tracer import Tracer

__all__ = [
    "SimulationEngine",
    "RandomStreams",
    "Counter",
    "TimeWeightedStat",
    "Tally",
    "Monitor",
    "Tracer",
]
