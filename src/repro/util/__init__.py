"""Shared utilities: validation, linear algebra, statistics, tables.

These helpers are deliberately dependency-light (numpy/scipy only) and are used by
every other sub-package.  Nothing in :mod:`repro.util` knows about recovery blocks;
it is pure plumbing.

Importing the package loads numpy and ``scipy.sparse``/``scipy.linalg``
(through :mod:`~repro.util.linalg`), nothing heavier.  The quadrature helpers
of :mod:`repro.util.integration` are not re-exported here: import them from
that module, which loads :mod:`scipy.integrate` only when one is called.
"""

from repro.util.validation import (
    check_positive,
    check_non_negative,
    check_probability,
    check_rate_matrix,
    check_symmetric_rates,
    require,
)
from repro.util.linalg import (
    is_generator_matrix,
    embed_dtmc,
    solve_linear,
    expected_visits_absorbing,
    absorption_probabilities,
)
from repro.util.stats import (
    SummaryStats,
    OnlineMoments,
    confidence_interval,
    empirical_cdf,
    empirical_pdf,
    relative_error,
)
from repro.util.tables import AsciiTable, format_float

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_rate_matrix",
    "check_symmetric_rates",
    "require",
    "is_generator_matrix",
    "embed_dtmc",
    "solve_linear",
    "expected_visits_absorbing",
    "absorption_probabilities",
    "SummaryStats",
    "OnlineMoments",
    "confidence_interval",
    "empirical_cdf",
    "empirical_pdf",
    "relative_error",
    "AsciiTable",
    "format_float",
]
