"""The one cell executor behind the facade, the experiments and the service.

Pins the contracts every caller gets from sharing it: execution options
reach the engine (``rep_chunk`` sizes the strategy tasks on every path),
results and store keys do not depend on them, and a sweep with one failing
cell still writes every other cell through.
"""

import asyncio

import pytest

from repro.api import StudySpec, evaluate_record
from repro.api.strategy import StrategyTask
from repro.report import ResultStore
from repro.runner.backends import SerialBackend
from repro.service import EvaluationService


class TaskCountingBackend(SerialBackend):
    """Serial backend that records every task it is asked to run."""

    def __init__(self):
        self.tasks = []

    def map(self, func, tasks):
        tasks = list(tasks)
        self.tasks.extend(tasks)
        return super().map(func, tasks)

    def strategy_tasks(self):
        return sum(isinstance(task, StrategyTask) for task in self.tasks)


def strategy_spec(**options):
    payload = {
        "system": {"kind": "strategy", "scheme": "synchronized", "n": 3,
                   "mu": 1.0, "lam": 1.0, "work": 10.0, "error_rate": 0.05,
                   "sync_interval": 2.0},
        "metrics": ["makespan", "rollbacks", "total_saves"],
        "reps": 16,
        "seed": 5,
    }
    if options:
        payload["options"] = options
    return StudySpec.from_dict(payload)


def hex_metrics(evaluation):
    return {name: value.hex() for name, value in evaluation.metrics.items()}


class TestRepChunkIsHonoured:
    """``rep_chunk`` used to be stripped before the engine saw the spec."""

    def reference(self):
        result = evaluate_record(strategy_spec(), method="strategy")
        return hex_metrics(result.cells[0].evaluation)

    def test_evaluate_record(self, tmp_path):
        backend = TaskCountingBackend()
        store = ResultStore(str(tmp_path / "store"))
        spec = strategy_spec(rep_chunk=2)
        result = evaluate_record(spec, method="strategy", backend=backend,
                                 store=store)
        assert backend.strategy_tasks() == 8
        cell = result.cells[0]
        assert hex_metrics(cell.evaluation) == self.reference()
        assert cell.key == strategy_spec().canonical_key("strategy")
        assert store.get(cell.key) is not None

    def test_service(self, tmp_path):
        backend = TaskCountingBackend()
        spec = strategy_spec(rep_chunk=2)

        async def main():
            service = EvaluationService(backend=backend,
                                        store=str(tmp_path / "store"),
                                        batch_window=0.01)
            return await service.submit_cell(spec, "strategy"), service

        outcome, service = asyncio.run(main())
        assert backend.strategy_tasks() == 8
        assert hex_metrics(outcome.evaluation) == self.reference()
        assert outcome.key == strategy_spec().canonical_key("strategy")
        assert service.store.get(outcome.key) is not None


class _EngineFault(RuntimeError):
    """Raised by a monkeypatched engine for one chosen cell."""


class TestPartialSweepFailure:
    """Every other cell is stored before the failing cell's error surfaces."""

    def test_analytic_precision_guard(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        # n=30 overflows float64 in the interval solve (ArithmeticError).
        sweep = {"system": {"kind": "symmetric", "n": 3, "mu": 1.0,
                            "lam": 0.5},
                 "metrics": ["mean"], "sweep": {"n": [3, 30, 4]}}
        with pytest.raises(ArithmeticError):
            evaluate_record(sweep, method="analytic", store=store)
        assert len(store) == 2
        resumed = evaluate_record({**sweep, "sweep": {"n": [3, 4]}},
                                  method="analytic", store=store)
        assert [cell.cached for cell in resumed.cells] == [True, True]

    def test_stochastic_engine_failure(self, tmp_path, monkeypatch):
        from repro.api.evaluators import MonteCarloEvaluator
        assemble = MonteCarloEvaluator.assemble

        def failing_assemble(self, spec, outputs):
            if spec.system.n == 4:
                raise _EngineFault("injected")
            return assemble(self, spec, outputs)

        monkeypatch.setattr(MonteCarloEvaluator, "assemble", failing_assemble)
        store = ResultStore(str(tmp_path / "store"))
        sweep = {"system": {"kind": "symmetric", "n": 3, "mu": 1.0,
                            "lam": 0.5},
                 "metrics": ["mean"], "reps": 200, "seed": 3,
                 "sweep": {"n": [3, 4, 5]}}
        with pytest.raises(_EngineFault):
            evaluate_record(sweep, method="mc", store=store)
        assert len(store) == 2
        monkeypatch.setattr(MonteCarloEvaluator, "assemble", assemble)
        resumed = evaluate_record(sweep, method="mc", store=store)
        assert [cell.cached for cell in resumed.cells] == [True, False, True]
