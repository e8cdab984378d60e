"""The unified evaluation facade — declarative specs, one ``evaluate()``.

The paper's central quantity — the distribution of the interval ``X``
between successive recovery lines, its moments and the per-process
recovery-point counts — can be computed three ways in this package: the
analytic phase-type chain (lumped, dense or sparse), the batched Monte-Carlo
:class:`~repro.markov.montecarlo.ModelSimulator`, and the discrete-event
kernel (:class:`~repro.sim.interval_sampler.DESIntervalSampler`).  This
subsystem puts a single, serializable front door on all three:

>>> import repro
>>> spec = repro.StudySpec(system=repro.SystemSpec.symmetric(5, 1.0, 0.5),
...                        metrics=("mean", "variance"), reps=4000, seed=7)
>>> repro.evaluate(spec, method="analytic").mean       # doctest: +SKIP
>>> repro.evaluate(spec, method="mc").mean             # doctest: +SKIP
>>> repro.evaluate(spec, method="des").mean            # doctest: +SKIP

Recovery *strategies* are first-class citizens of the same front door: a
``strategy`` :class:`~repro.api.SystemSpec` names a checkpointing scheme plus
a workload, and the ``strategy`` engine (:mod:`repro.api.strategy`) measures
makespan, slowdown, rollback behaviour and Section 3's ``sync_loss`` by
driving the :mod:`repro.recovery` runtimes — with the synchronized scheme's
closed forms served by ``analytic`` for cross-checking.

``method="auto"`` (the default) selects an engine from the system kind, the
state-space size and the requested metrics; sweep axes expand into cells
that one executor (:mod:`repro.api.executor`) fans out through the execution
backend, with store caching and resume; and :meth:`StudySpec.canonical_key`
*is* the result-store cell key, so specs can predict their own cache
address.  The CLI face is
``python -m repro eval spec.json``.
"""

from repro.api.evaluation import Evaluation
from repro.api.evaluators import (
    AnalyticEvaluator,
    DiscreteEventEvaluator,
    Evaluator,
    MonteCarloEvaluator,
    UnsupportedMetricError,
    get_evaluator,
    list_methods,
    register_evaluator,
    resolve_method,
)
from repro.api.facade import (
    CellResult,
    StudyResult,
    evaluate,
    evaluate_in_context,
    evaluate_record,
)
from repro.api.spec import (
    DEFAULT_EVAL_REPS,
    DEFAULT_STRATEGY_REPS,
    EVALUATE_SCENARIO_NAME,
    KNOWN_METRICS,
    RECOVERY_SCHEMES,
    STRATEGY_METRICS,
    StudySpec,
    SystemSpec,
)
from repro.api.strategy import StrategyEvaluator  # registers the engine

__all__ = [
    "AnalyticEvaluator",
    "CellResult",
    "DEFAULT_EVAL_REPS",
    "DEFAULT_STRATEGY_REPS",
    "DiscreteEventEvaluator",
    "EVALUATE_SCENARIO_NAME",
    "Evaluation",
    "Evaluator",
    "KNOWN_METRICS",
    "MonteCarloEvaluator",
    "RECOVERY_SCHEMES",
    "STRATEGY_METRICS",
    "StrategyEvaluator",
    "StudyResult",
    "StudySpec",
    "SystemSpec",
    "UnsupportedMetricError",
    "evaluate",
    "evaluate_in_context",
    "evaluate_record",
    "get_evaluator",
    "list_methods",
    "register_evaluator",
    "resolve_method",
]
