"""The one front door: ``repro.evaluate(spec, method=...)``.

The facade composes the declarative :class:`~repro.api.spec.StudySpec`, the
engine registry of :mod:`repro.api.evaluators` and the cell executor of
:mod:`repro.api.executor` into a single entry point:

* ``method="auto"`` resolves to an engine by state-space size and requested
  metrics (:func:`~repro.api.evaluators.resolve_method`);
* sweep axes expand into grid cells, and the cells the attached
  :class:`~repro.report.store.ResultStore` does not already hold go to the
  executor in **one** call — one backend ``map`` per engine worker, so
  ``backend="process"`` parallelises a sweep end to end with bit-identical
  results;
* every computed cell is written through under
  :meth:`StudySpec.store_identity`, whose key is exactly
  :meth:`StudySpec.canonical_key`, so interrupted sweeps resume.

Scenario code that already *has* an :class:`ExecutionContext` (it is being
run by the runner) uses :func:`evaluate_in_context`: the same executor, with
every cell planned in the shared context, so the cells continue its seed
stream in order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from typing import Dict, Iterable, List, Mapping, Optional, Union

from repro.api.evaluation import Evaluation
from repro.api.evaluators import get_evaluator, resolve_method
from repro.api.executor import BatchCell, execute_cell, execute_cells
from repro.api.spec import EVALUATE_SCENARIO_NAME, StudySpec
from repro.bench import phase as _phase
from repro.experiments.common import ExperimentResult
from repro.report.store import store_key
from repro.runner import ExecutionContext, scenario
from repro.runner.backends import make_backend

__all__ = ["CellResult", "StudyResult", "evaluate", "evaluate_in_context",
           "evaluate_record"]


# --------------------------------------------------------------------- scenario
@scenario(EVALUATE_SCENARIO_NAME,
          description="Evaluate a declarative StudySpec through one engine",
          paper_reference="Section 2.3 (the interval distribution, via the "
                          "unified facade)",
          internal=True)
def evaluate_scenario(ctx: ExecutionContext, *,
                      spec: Optional[Dict[str, object]] = None,
                      method: str = "analytic") -> ExperimentResult:
    """One study cell, one engine, run by the runner.

    ``spec`` is a :meth:`StudySpec.to_dict` payload without seed/reps (the
    runner's context carries them); ``method`` must already be resolved.
    The scenario names the store identity of every facade cell
    (:meth:`StudySpec.store_identity`), so it stays registered, but marked
    *internal* so generic enumeration (``list``, ``report --all``) never runs
    it parameterless.
    """
    if spec is None:
        raise ValueError(
            "the 'evaluate' scenario needs a StudySpec: call "
            "repro.evaluate(spec), use `python -m repro eval SPEC.json`, or "
            "pass --params with a {'spec': {...}, 'method': ...} payload")
    carried = sorted({"seed", "reps", "sweep"} & set(spec))
    if carried:
        # The runner's seed/reps slots are authoritative here (that is how
        # the cell is keyed), and a sweep would be silently collapsed to
        # its base cell.
        raise ValueError(
            f"the 'evaluate' scenario payload must not embed {carried}; "
            "seed/reps are runner-level, and sweeps are expanded by "
            "repro.evaluate / `python -m repro eval` before dispatch")
    study = StudySpec.from_dict(spec)
    return execute_cell(BatchCell(spec=study, method=method, ctx=ctx)
                        ).to_experiment_result()


# --------------------------------------------------------------------- results
@dataclass(frozen=True)
class CellResult:
    """One evaluated sweep cell, with its provenance."""

    spec: StudySpec
    evaluation: Evaluation
    method: str
    cached: bool
    key: Optional[str]
    elapsed_seconds: float


@dataclass(frozen=True)
class StudyResult:
    """What :func:`evaluate` returns for a sweep spec."""

    spec: StudySpec
    cells: List[CellResult]

    @property
    def evaluations(self) -> List[Evaluation]:
        return [cell.evaluation for cell in self.cells]

    @property
    def cache_hits(self) -> int:
        return sum(cell.cached for cell in self.cells)

    def to_experiment_result(self) -> ExperimentResult:
        """Tabulate the sweep: one row per cell, scalar metrics as columns."""
        axes = list(self.spec.sweep)
        scalar_columns: List[str] = []
        for cell in self.cells:
            for name in cell.evaluation.metrics:
                if name not in scalar_columns:
                    scalar_columns.append(name)
        result = ExperimentResult(
            name="api_study_sweep",
            paper_reference="repro.api facade sweep",
            columns=scalar_columns,
            notes=f"sweep axes: {', '.join(axes)}" if axes else "",
        )
        for cell in self.cells:
            label = _cell_label(self.spec, cell.spec) + f" [{cell.method}]"
            values = {name: cell.evaluation.metrics.get(name, float("nan"))
                      for name in scalar_columns}
            result.add_row(label, **values)
        return result


def _cell_label(parent: StudySpec, cell: StudySpec) -> str:
    """Human label of a cell: the swept axis values that identify it."""
    parts = []
    for axis in parent.sweep:
        if axis == "reps":
            parts.append(f"reps={cell.effective_reps()}")
        elif axis == "seed":
            parts.append(f"seed={cell.seed}")
        else:
            value = cell.system.args.get(axis)
            parts.append(f"{axis}={value:g}" if isinstance(value, float)
                         else f"{axis}={value}")
    return ", ".join(parts) if parts else "cell"


# --------------------------------------------------------------------- facade
def evaluate(spec: Union[StudySpec, Mapping[str, object]],
             method: str = "auto", *,
             backend=None, workers: Optional[int] = None,
             store=None, force: bool = False
             ) -> Union[Evaluation, StudyResult]:
    """Evaluate a study spec (or its dict form) through one entry point.

    Parameters
    ----------
    spec:
        A :class:`StudySpec` or its :meth:`~StudySpec.to_dict` payload (the
        JSON form ``python -m repro eval`` reads from a file).
    method:
        ``"auto"`` (select by system kind, state-space size and metrics),
        ``"analytic"``, ``"mc"``, ``"des"``, or — for ``strategy`` systems —
        ``"strategy"`` (measure a recovery scheme by running its runtime).
    backend / workers:
        Execution backend for the stochastic shards and sweep cells (same
        semantics as everywhere else: results are backend independent).
    store:
        Optional :class:`~repro.report.store.ResultStore` (or path); cells
        already evaluated under the same canonical key are reloaded, not
        recomputed — interrupted sweeps resume.
    force:
        Recompute even on a cache hit (the result is re-written through).

    Returns
    -------
    A single :class:`Evaluation` for a plain spec, a :class:`StudyResult`
    for a spec with sweep axes.  (:func:`evaluate_record` always returns the
    :class:`StudyResult` form, with per-cell cache provenance.)
    """
    result = evaluate_record(spec, method, backend=backend, workers=workers,
                             store=store, force=force)
    if not result.spec.is_sweep:
        return result.cells[0].evaluation
    return result


def evaluate_record(spec: Union[StudySpec, Mapping[str, object]],
                    method: str = "auto", *,
                    backend=None, workers: Optional[int] = None,
                    store=None, force: bool = False) -> StudyResult:
    """Like :func:`evaluate`, but always return the full :class:`StudyResult`
    — one :class:`CellResult` per cell with cache status and store key.

    Cells are deduplicated by :meth:`StudySpec.canonical_key` (e.g. a reps
    axis, which deterministic results ignore, collapses to one cell), and
    every cell the store does not hold is executed in one executor call.
    Seedless stochastic cells are fresh-entropy experiments: they bypass
    the store and the deduplication.  Every computed cell is written
    through before the first failed cell's exception is re-raised, so a
    re-run resumes from the store.
    """
    if not isinstance(spec, StudySpec):
        spec = StudySpec.from_dict(spec)
    if isinstance(store, str):
        from repro.report.store import ResultStore
        store = ResultStore(store)
    backend = make_backend(backend, workers)
    cells = list(spec.cells())
    results: List[Optional[CellResult]] = [None] * len(cells)
    pending: List[BatchCell] = []
    identities: List[Optional[tuple]] = []       # per pending cell
    targets: List[List[int]] = []                # cell indices per pending
    by_key: Dict[str, int] = {}
    # A lone cell without a store has no key to share with anything.
    keyed = store is not None or len(cells) > 1
    for index, cell in enumerate(cells):
        resolved = resolve_method(cell, method)
        identity = key = None
        if keyed and (cell.seed is not None
                      or not get_evaluator(resolved).stochastic):
            identity = cell.store_identity(resolved)
            key = store_key(*identity)
            if key in by_key:
                targets[by_key[key]].append(index)
                continue
            if store is not None and not force:
                with _phase("store"):
                    hit = store.get(key, EVALUATE_SCENARIO_NAME)
                if hit is not None:
                    results[index] = CellResult(
                        spec=cell, evaluation=_restamp(
                            Evaluation.from_experiment_result(hit.result),
                            cell),
                        method=resolved, cached=True, key=key,
                        elapsed_seconds=hit.elapsed_seconds)
                    continue
            by_key[key] = len(pending)
        pending.append(BatchCell(spec=cell, method=resolved))
        identities.append(identity if store is not None else None)
        targets.append([index])

    outcomes, _dispatches = execute_cells(backend, pending)
    failure = None
    for batch_cell, identity, indices, outcome in zip(
            pending, identities, targets, outcomes):
        if isinstance(outcome, Exception):
            failure = outcome if failure is None else failure
            continue
        key = None
        if identity is not None:
            with _phase("store"):
                key = store.put(*identity, backend=backend.describe(),
                                elapsed_seconds=outcome.elapsed_seconds,
                                result=outcome.evaluation
                                .to_experiment_result()).key
        for index in indices:
            results[index] = CellResult(
                spec=cells[index],
                evaluation=_restamp(outcome.evaluation, cells[index]),
                method=batch_cell.method, cached=False, key=key,
                elapsed_seconds=outcome.elapsed_seconds)
    if failure is not None:
        raise failure
    return StudyResult(spec=spec, cells=results)


def _restamp(evaluation: Evaluation, cell: StudySpec) -> Evaluation:
    """*evaluation* under the requesting cell's stated tolerance: rel_tol is
    a spec-side annotation excluded from the cell identity, so what the
    caller declared wins over what a shared or stored result carries."""
    if evaluation.rel_tol == cell.rel_tol:
        return evaluation
    return _dc_replace(evaluation, rel_tol=cell.rel_tol)


# ----------------------------------------------------------------- in-context
def evaluate_in_context(ctx: ExecutionContext,
                        specs: Iterable[StudySpec],
                        method: str = "analytic") -> List[Evaluation]:
    """Evaluate many cells inside an already-running scenario.

    All cells must resolve to the *same* engine; they are planned together
    in *ctx* (:meth:`~repro.api.evaluators.Evaluator.cell_tasks`) and run in
    one backend ``map``.  For ``mc``/``des`` that is the fixed-size shard
    stream of :func:`repro.experiments.sampling.sample_interval_cases`
    (seeds spawned per cell, in cell order); the ``strategy`` engine instead
    shares one replication seed block across the cells (common random
    numbers).
    """
    specs = list(specs)
    names = {resolve_method(s, method) for s in specs}
    if len(names) > 1:
        raise ValueError(f"evaluate_in_context needs one engine per call, "
                         f"got {sorted(names)}")
    resolved = names.pop() if names else method
    outcomes, _dispatches = execute_cells(
        ctx.backend, [BatchCell(spec=s, method=resolved, ctx=ctx)
                      for s in specs])
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return [outcome.evaluation for outcome in outcomes]
