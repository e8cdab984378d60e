"""The common result type every evaluation engine returns.

An :class:`Evaluation` is method-agnostic: the analytic chain, the batched
Monte-Carlo sampler and the discrete-event engine all produce the same shape —
scalar interval metrics, optional per-process vectors, optional distribution
grids, and (for the stochastic engines) sample counts and standard errors.

Evaluations round-trip exactly through
:class:`~repro.experiments.common.ExperimentResult`
(:meth:`Evaluation.to_experiment_result` /
:meth:`Evaluation.from_experiment_result`), which is what lets the facade
use the :class:`~repro.report.store.ResultStore` unchanged: a stored facade
cell is an ordinary stored experiment, and reloading it reconstructs the
evaluation bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.experiments.common import ExperimentResult

__all__ = ["Evaluation"]

#: ``ExperimentResult.name`` used by the row encoding below.
_RESULT_NAME = "api_evaluation"
_VALUE_COLUMN = "value"


@dataclass(frozen=True)
class Evaluation:
    """What :func:`repro.api.evaluate` returns for one study cell.

    Attributes
    ----------
    method:
        The engine that produced the numbers: ``"analytic"``, ``"mc"`` or
        ``"des"``.
    backend:
        Engine detail — the analytic chain route (``lumped``/``dense``/
        ``sparse``) or the sampler identity (``model-mc``, ``des-engine``).
    n_processes:
        Number of processes of the evaluated system.
    metrics:
        Scalar interval metrics (``mean``, ``variance``, ``std``; stochastic
        engines add ``stderr_mean``).
    rp_counts:
        Per-process expected recovery-point counts ``E[L_i]`` (when the
        ``rp_counts`` metric was requested).
    completion_probabilities:
        Per-process line-completion probabilities ``q_i`` (when requested).
    distributions:
        Distribution grids keyed ``times``/``pdf``/``cdf``/``sf`` (whichever
        were requested).
    n_samples:
        Intervals actually sampled (stochastic engines; ``None`` analytic).
    rel_tol:
        The spec's stated relative tolerance, restated here so downstream
        comparisons know what agreement the producer promised.
    """

    method: str
    backend: str
    n_processes: int
    metrics: Dict[str, float] = field(default_factory=dict)
    rp_counts: Optional[Tuple[float, ...]] = None
    completion_probabilities: Optional[Tuple[float, ...]] = None
    distributions: Dict[str, Tuple[float, ...]] = field(default_factory=dict)
    n_samples: Optional[int] = None
    rel_tol: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(self, "metrics",
                           {str(k): float(v) for k, v in self.metrics.items()})
        if self.rp_counts is not None:
            object.__setattr__(self, "rp_counts",
                               tuple(float(v) for v in self.rp_counts))
        if self.completion_probabilities is not None:
            object.__setattr__(self, "completion_probabilities",
                               tuple(float(v)
                                     for v in self.completion_probabilities))
        object.__setattr__(self, "distributions",
                           {str(k): tuple(float(v) for v in vs)
                            for k, vs in self.distributions.items()})

    # ------------------------------------------------------------------ access
    def __hash__(self) -> int:
        # Dict fields defeat the dataclass-generated hash; hash the
        # serialised form so equal evaluations hash equal.
        return hash(json.dumps(self.to_dict(), sort_keys=True))

    @property
    def mean(self) -> float:
        """``E[X]`` — every engine reports it, whatever metrics were asked."""
        return self.metrics["mean"]

    @property
    def stderr(self) -> Optional[float]:
        """Standard error of the mean (stochastic engines only)."""
        return self.metrics.get("stderr_mean")

    def agrees_with(self, other: "Evaluation",
                    rel_tol: Optional[float] = None) -> bool:
        """Whether the two means agree within the stated relative tolerance."""
        tol = max(self.rel_tol, other.rel_tol) if rel_tol is None else rel_tol
        scale = max(abs(self.mean), abs(other.mean), 1e-300)
        return abs(self.mean - other.mean) / scale <= tol

    # ------------------------------------------------------------------ dict form
    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "method": self.method,
            "backend": self.backend,
            "n_processes": self.n_processes,
            "metrics": dict(self.metrics),
            "rel_tol": self.rel_tol,
        }
        if self.rp_counts is not None:
            payload["rp_counts"] = list(self.rp_counts)
        if self.completion_probabilities is not None:
            payload["completion_probabilities"] = \
                list(self.completion_probabilities)
        if self.distributions:
            payload["distributions"] = {k: list(v)
                                        for k, v in self.distributions.items()}
        if self.n_samples is not None:
            payload["n_samples"] = self.n_samples
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Evaluation":
        return cls(
            method=str(payload["method"]),
            backend=str(payload["backend"]),
            n_processes=int(payload["n_processes"]),
            metrics=dict(payload.get("metrics", {})),
            rp_counts=(tuple(payload["rp_counts"])
                       if "rp_counts" in payload else None),
            completion_probabilities=(
                tuple(payload["completion_probabilities"])
                if "completion_probabilities" in payload else None),
            distributions={k: tuple(v) for k, v in
                           payload.get("distributions", {}).items()},
            n_samples=(int(payload["n_samples"])
                       if payload.get("n_samples") is not None else None),
            rel_tol=float(payload.get("rel_tol", 0.05)),
        )

    # ------------------------------------------------------------------ store form
    def to_experiment_result(self) -> ExperimentResult:
        """Encode as an :class:`ExperimentResult` (one labelled row per value).

        Scalars become rows labelled by their metric name; vector entries
        become ``rp_counts[i]`` / ``q[i]`` rows; distribution grids become
        ``pdf@<t>``-style rows.  The non-numeric envelope (method, backend,
        sample count, tolerance) rides in ``notes`` as compact JSON — every
        float lands in a row value, so the store round trip is exact.
        """
        result = ExperimentResult(
            name=_RESULT_NAME,
            paper_reference="repro.api facade evaluation",
            columns=[_VALUE_COLUMN],
            notes=json.dumps({
                "method": self.method,
                "backend": self.backend,
                "n_processes": self.n_processes,
                "n_samples": self.n_samples,
                "rel_tol": self.rel_tol,
            }, sort_keys=True),
        )
        for name, value in self.metrics.items():
            result.add_row(name, value=value)
        if self.rp_counts is not None:
            for i, value in enumerate(self.rp_counts):
                result.add_row(f"rp_counts[{i}]", value=value)
        if self.completion_probabilities is not None:
            for i, value in enumerate(self.completion_probabilities):
                result.add_row(f"q[{i}]", value=value)
        for key, values in self.distributions.items():
            if key == "times":
                for i, t in enumerate(values):
                    result.add_row(f"times[{i}]", value=t)
                continue
            for i, value in enumerate(values):
                result.add_row(f"{key}[{i}]", value=value)
        return result

    @classmethod
    def from_experiment_result(cls, result: ExperimentResult) -> "Evaluation":
        """Rebuild an evaluation from its row encoding (exact inverse)."""
        if result.name != _RESULT_NAME:
            raise ValueError(f"not an api evaluation result: {result.name!r}")
        envelope = json.loads(result.notes)
        metrics: Dict[str, float] = {}
        vectors: Dict[str, Dict[int, float]] = {}
        for row in result.rows:
            value = row.get(_VALUE_COLUMN)
            label = row.label
            if "[" in label and label.endswith("]"):
                key, _, index = label[:-1].partition("[")
                vectors.setdefault(key, {})[int(index)] = value
            else:
                metrics[label] = value

        def vector(key: str) -> Optional[Tuple[float, ...]]:
            entries = vectors.get(key)
            if entries is None:
                return None
            return tuple(entries[i] for i in range(len(entries)))

        distributions = {key: vector(key)
                         for key in ("times", "pdf", "cdf", "sf")
                         if vector(key) is not None}
        return cls(
            method=str(envelope["method"]),
            backend=str(envelope["backend"]),
            n_processes=int(envelope["n_processes"]),
            metrics=metrics,
            rp_counts=vector("rp_counts"),
            completion_probabilities=vector("q"),
            distributions=distributions,
            n_samples=(int(envelope["n_samples"])
                       if envelope.get("n_samples") is not None else None),
            rel_tol=float(envelope.get("rel_tol", 0.05)),
        )
