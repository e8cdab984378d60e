"""Error-propagation analysis.

The runtimes in :mod:`repro.recovery` inject faults online (through
:class:`~repro.workloads.spec.FaultModel`); :mod:`~repro.faults.propagation`
is the *offline* counterpart used for analysis and testing: given a history
and an error origin, compute which processes are contaminated at any instant
and which checkpoints are contaminated (the key question for pseudo recovery
points, Section 4).  It also expands the cascades the runtimes inject.
"""

from repro.faults.propagation import (
    ContaminationAnalysis,
    contaminated_checkpoints,
    contamination_at,
)

__all__ = [
    "ContaminationAnalysis",
    "contaminated_checkpoints",
    "contamination_at",
]
