"""The one cell executor: plan → dispatch → slice → assemble.

Every path that evaluates :class:`~repro.api.spec.StudySpec` cells hands
them to :func:`execute_cells` — :func:`repro.evaluate` /
:func:`~repro.api.facade.evaluate_record`, the experiments'
:func:`~repro.api.facade.evaluate_in_context`, the registered ``evaluate``
scenario, :meth:`Evaluator.evaluate <repro.api.evaluators.Evaluator.evaluate>`
and the service's batch flush.  The executor

1. groups the cells by their engine's worker function (``mc`` and ``des``
   share one, so a mixed burst is one group);
2. plans each group's tasks per *context* with
   :meth:`~repro.api.evaluators.Evaluator.cell_tasks`: a cell without a
   context gets its own ``ExecutionContext(seed=spec.seed,
   reps=spec.effective_reps())``; cells sharing a context (the experiments,
   the strategy engine's common random numbers) are planned together, in
   cell order.  Planning also imports each cell's
   :meth:`~repro.api.evaluators.Evaluator.worker_modules`, so pool workers
   fork with everything their tasks import already loaded;
3. issues **one** ``backend.map`` per group;
4. slices the outputs per cell and assembles each cell from its slice.

Determinism: seeds are spawned while planning, before dispatch, and backends
return outputs in task order, so a cell's evaluation does not depend on the
backend, the worker count, or which other cells shared its map.  The engine
always receives the requesting spec, execution options (``rep_chunk``)
included.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api.evaluation import Evaluation
from repro.api.evaluators import Evaluator, get_evaluator
from repro.api.spec import StudySpec
from repro.bench import phase as _phase
from repro.runner import ExecutionContext
from repro.runner.backends import ExecutionBackend, SerialBackend

__all__ = ["BatchCell", "ExecutedCell", "execute_cell", "execute_cells"]

_NO_PHASE = contextlib.nullcontext()


@dataclass(frozen=True)
class BatchCell:
    """One cell to execute: a single-cell spec and its resolved engine.

    ``ctx`` is the context the cell shares with other cells, or ``None`` for
    a cell seeded from its own spec.
    """

    spec: StudySpec
    method: str
    ctx: Optional[ExecutionContext] = None


@dataclass(frozen=True)
class ExecutedCell:
    """One executed cell.

    ``elapsed_seconds`` is provenance: the cell's share of its map's wall
    time (in proportion to its task count) plus its own assembly time.
    """

    evaluation: Evaluation
    elapsed_seconds: float


def _run_task(worker, task):
    """Task wrapper: a raising task returns its exception as its output, so
    it fails its own cell and no other cell of the map."""
    try:
        return worker(task)
    except Exception as exc:
        return exc


def execute_cells(backend: ExecutionBackend, cells: Sequence[BatchCell]
                  ) -> Tuple[List[Union[ExecutedCell, Exception]], int]:
    """Execute *cells* with one ``backend.map`` per engine-worker group.

    Returns ``(outcomes, dispatches)``: ``outcomes[i]`` is the
    :class:`ExecutedCell` of ``cells[i]`` or the exception that failed it,
    and ``dispatches`` counts the ``backend.map`` calls issued.
    """
    outcomes: List[Union[ExecutedCell, Exception, None]] = [None] * len(cells)
    evaluators: List[Optional[Evaluator]] = [None] * len(cells)
    # worker -> plan key -> cell indices, in first-appearance order.  A plan
    # is one context and one engine: a shared context is planned in one
    # cell_tasks call, an own-context cell alone.
    groups: Dict[object, Dict[object, List[int]]] = {}
    for index, cell in enumerate(cells):
        try:
            evaluator = evaluators[index] = get_evaluator(cell.method)
        except KeyError as exc:                     # bad cell, not bad batch
            outcomes[index] = exc
            continue
        plan = index if cell.ctx is None else (id(cell.ctx), cell.method)
        groups.setdefault(evaluator.worker, {}).setdefault(
            plan, []).append(index)

    dispatches = 0
    for worker, plans in groups.items():
        tasks: List[object] = []
        slices: List[Tuple[int, int, int]] = []     # (cell, lo, hi)
        for indices in plans.values():
            first = cells[indices[0]]
            ctx = first.ctx if first.ctx is not None else ExecutionContext(
                backend=backend, seed=first.spec.seed,
                reps=first.spec.effective_reps())
            try:
                with _phase("assembly"):
                    planned, bounds = evaluators[indices[0]].cell_tasks(
                        [cells[i].spec for i in indices], ctx)
                    for i in indices:
                        for module in evaluators[i].worker_modules(
                                cells[i].spec):
                            importlib.import_module(module)
            except Exception as exc:                # bad plan, not bad batch
                for i in indices:
                    outcomes[i] = exc
                continue
            offset = len(tasks)
            slices.extend((i, offset + lo, offset + hi)
                          for i, lo, hi in zip(indices, bounds, bounds[1:]))
            tasks.extend(planned)
        if not slices:
            continue
        dispatches += 1
        start = time.perf_counter()
        try:
            # Deterministic engines time their own assembly/solve phases.
            with _phase("sim") if evaluators[slices[0][0]].stochastic \
                    else _NO_PHASE:
                outputs = backend.map(functools.partial(_run_task, worker),
                                      tasks)
        except Exception as exc:                    # poison this group only
            for i, _lo, _hi in slices:
                outcomes[i] = exc
            continue
        map_wall = time.perf_counter() - start
        for i, lo, hi in slices:
            assemble_start = time.perf_counter()
            own = outputs[lo:hi]
            try:
                for output in own:
                    if isinstance(output, Exception):
                        raise output
                with _phase("reduce"):
                    evaluation = evaluators[i].assemble(cells[i].spec, own)
            except Exception as exc:
                outcomes[i] = exc
                continue
            share = map_wall * (hi - lo) / max(1, len(tasks))
            outcomes[i] = ExecutedCell(
                evaluation=evaluation,
                elapsed_seconds=share + time.perf_counter() - assemble_start)
    return outcomes, dispatches


def execute_cell(cell: BatchCell) -> Evaluation:
    """Execute one cell on its context's backend; raise what failed it."""
    backend = cell.ctx.backend if cell.ctx is not None else SerialBackend()
    [outcome], _dispatches = execute_cells(backend, [cell])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome.evaluation
