"""Unit tests for contamination propagation."""

import pytest

from repro.core.history import HistoryDiagram
from repro.core.types import CheckpointKind
from repro.faults.propagation import contaminated_checkpoints, contamination_at


@pytest.fixture
def chain_history():
    """P1 -> P2 -> P3 message chain after a fault in P1."""
    history = HistoryDiagram(3)
    history.add_recovery_point(0, 1.0)
    history.add_recovery_point(1, 1.0)
    history.add_recovery_point(2, 1.0)
    history.add_interaction(0, 1, 3.0)
    history.add_recovery_point(1, 4.0, kind=CheckpointKind.PSEUDO, origin=(0, 1))
    history.add_interaction(1, 2, 5.0)
    history.add_recovery_point(2, 6.0)
    return history


class TestPropagation:
    def test_contamination_spreads_along_messages(self, chain_history):
        infected = contamination_at(chain_history, origin=0, fault_time=2.0, time=5.5)
        assert infected == {0, 1, 2}

    def test_contamination_respects_message_timing(self, chain_history):
        # A fault after the P1 -> P2 message never reaches the others.
        infected = contamination_at(chain_history, origin=0, fault_time=3.5, time=10.0)
        assert infected == {0}

    def test_contamination_before_query_time_only(self, chain_history):
        infected = contamination_at(chain_history, origin=0, fault_time=2.0, time=4.0)
        assert infected == {0, 1}

    def test_contaminated_checkpoints_flags_prp_after_infection(self, chain_history):
        bad = contaminated_checkpoints(chain_history, origin=0, fault_time=2.0)
        labels = {(rp.process, rp.kind) for rp in bad}
        # The PRP in P2 (taken at 4.0, after infection at 3.0) is contaminated, and
        # so is P3's RP at 6.0 (infection at 5.0).
        assert (1, CheckpointKind.PSEUDO) in labels
        assert (2, CheckpointKind.REGULAR) in labels
        # P2's clean RP at 1.0 is not.
        assert all(not (rp.process == 1 and rp.time == 1.0) for rp in bad)

    def test_clean_system_has_no_contaminated_checkpoints(self, chain_history):
        assert contaminated_checkpoints(chain_history, origin=2, fault_time=50.0) == []

    def test_invalid_arguments(self, chain_history):
        with pytest.raises(ValueError):
            contamination_at(chain_history, origin=9, fault_time=0.0, time=1.0)
        with pytest.raises(ValueError):
            contamination_at(chain_history, origin=0, fault_time=-1.0, time=1.0)
