"""The report pipeline: run (or reload) scenarios, render, write ``REPORT.md``.

:func:`generate_report` is the programmatic face of ``python -m repro
report``.  It owns the glue and nothing else: the
:class:`~repro.runner.runner.ExperimentRunner` decides whether each
``(scenario, params, seed, reps)`` cell is computed or served from the
:class:`~repro.report.store.ResultStore`, the renderer registry
(:mod:`repro.report.figures`) turns results into figure/table files, and
:mod:`repro.report.markdown` assembles the provenance-stamped document.

Because the store lives *inside* the output directory by default
(``<out>/store``), re-running the same report command is idempotent: every
cell hits the cache, the figures are re-rendered from stored results, and no
scenario executes twice.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.runner import ExperimentRunner, get_scenario, list_scenarios
from repro.runner.backends import ExecutionBackend
from repro.report.figures import render_artifacts
from repro.report.markdown import (ReportSection, render_report,
                                   report_provenance)
from repro.report.store import ResultStore

__all__ = ["ReportSummary", "default_scenario_order", "generate_report"]

#: Scenarios whose outputs are the paper's own artifacts, in reading order;
#: ``--all`` reports lead with these and append the remaining scenarios
#: alphabetically.
PAPER_ORDER = ("table1", "figure5", "figure5_full_chain", "figure6",
               "heterogeneous_sweep")


def default_scenario_order(names: Sequence[str]) -> List[str]:
    """Order *names* paper-artifacts-first, the rest alphabetically."""
    names = list(names)
    ordered = [name for name in PAPER_ORDER if name in names]
    ordered += sorted(name for name in names if name not in PAPER_ORDER)
    return ordered


@dataclass
class ReportSummary:
    """What :func:`generate_report` produced, for callers and tests."""

    report_path: str
    out_dir: str
    store_root: str
    sections: List[ReportSection] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        return sum(section.cached for section in self.sections)

    @property
    def computed(self) -> int:
        return sum(not section.cached for section in self.sections)

    @property
    def artifact_paths(self) -> List[str]:
        return [artifact.path for section in self.sections
                for artifact in section.artifacts]


def generate_report(scenarios: Optional[Sequence[str]] = None, *,
                    out_dir: str = "reports",
                    store: Union[ResultStore, str, None] = None,
                    backend: Union[str, ExecutionBackend, None] = None,
                    workers: Optional[int] = None,
                    seed: Optional[int] = 2024,
                    reps: Optional[int] = None,
                    force: bool = False,
                    digits: int = 6) -> ReportSummary:
    """Run (or reload) *scenarios* and write a self-contained report.

    Parameters
    ----------
    scenarios:
        Scenario names to include; ``None`` means every registered scenario,
        paper artifacts first (:func:`default_scenario_order`).
    out_dir:
        Report directory; receives ``REPORT.md``, ``figures/``, ``tables/``
        and (by default) the result store under ``store/``.
    store:
        A :class:`ResultStore`, a path to one, or ``None`` for
        ``<out_dir>/store``.  Cells already in the store are *not* re-run
        unless ``force`` is given.
    backend / workers / seed / reps:
        Execution knobs, with the same meaning as on ``python -m repro run``.
        ``seed`` defaults to 2024 (the CLI default) so reports are
        reproducible unless fresh entropy is requested with ``seed=None``.
    force:
        Recompute every cell even on a cache hit (results are re-written
        through to the store).
    digits:
        Significant digits in the report's markdown tables.
    """
    known = [spec.name for spec in list_scenarios()]
    if scenarios is None:
        names = default_scenario_order(known)
    else:
        names = list(scenarios)
        # Internal scenarios (the facade's 'evaluate') need caller-supplied
        # parameters and have no renderable default — refuse them up front
        # instead of crashing after the other sections computed.
        internal = [name for name in names
                    if name not in known and get_scenario(name).internal]
        if internal:
            raise ValueError(
                f"scenario(s) {internal} are internal infrastructure and "
                "cannot be rendered into a report; evaluate them with "
                "`python -m repro eval`")

    os.makedirs(out_dir, exist_ok=True)
    if store is None:
        store = ResultStore(os.path.join(out_dir, "store"))
    elif isinstance(store, str):
        store = ResultStore(store)

    runner = ExperimentRunner(backend, workers=workers, seed=seed, reps=reps,
                              store=store)
    sections: List[ReportSection] = []
    for name in names:
        record = runner.run_record(name, force=force)
        artifacts = render_artifacts(record.spec.renderer, record.result,
                                     out_dir, name, digits)
        sections.append(ReportSection(
            name=name,
            title=record.spec.description or record.result.name,
            paper_reference=record.spec.paper_reference,
            result=record.result,
            artifacts=artifacts,
            cached=record.cached,
            elapsed_seconds=record.elapsed_seconds,
            key=record.key,
            reps=record.reps,
        ))

    # Display the store relative to the report when it lives inside it
    # (the default layout); otherwise show it as given.
    store_display = os.path.relpath(os.path.abspath(store.root),
                                    os.path.abspath(out_dir))
    if store_display.startswith(os.pardir):
        store_display = store.root
    provenance = report_provenance(seed, runner.backend.describe(), extras={
        "result store": store_display,
        "scenarios": str(len(sections)),
    })
    report_path = os.path.join(out_dir, "REPORT.md")
    document = render_report(sections, out_dir, provenance, digits=digits)
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write(document)
    return ReportSummary(report_path=report_path, out_dir=out_dir,
                         store_root=store.root, sections=sections)
