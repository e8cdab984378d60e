"""Experiment harness: regenerate every table and figure of the paper.

Each module builds an :class:`~repro.experiments.common.ExperimentResult` whose
``render()`` produces the rows/series the paper reports (plus our analytic and
Monte-Carlo values side by side), so that running the benchmark suite doubles as
regenerating the artefacts.  See DESIGN.md §3 for the experiment index.

Every module registers its entry point with the scenario registry
(:mod:`repro.runner`) when it is imported.  Importing this package loads only
:mod:`~repro.experiments.common` (the result types every engine returns);
:func:`repro.runner.load_builtin_scenarios` owns the list of scenario modules
and imports them on the first registry lookup, after which
``python -m repro list`` / ``python -m repro run <name>`` (or
:func:`repro.runner.run_scenario`) run any experiment, serially or across a
process pool.  The ``run_*`` compatibility wrappers live in their modules
(``from repro.experiments.table1 import run_table1``).

Scenarios whose output *is* a paper artifact additionally declare a renderer
(``@scenario(..., renderer="figure5")``); ``python -m repro report`` routes
their results through :mod:`repro.report.figures` into figure/table files
plus a provenance-stamped ``REPORT.md``.
"""

from repro.experiments.common import ExperimentResult, ExperimentRow

__all__ = ["ExperimentResult", "ExperimentRow"]
