"""Health state machine behavior."""

from __future__ import annotations

import pytest

from repro.chaos.policy import HealthPolicy, HealthState, HealthTracker


@pytest.fixture
def tracker() -> HealthTracker:
    return HealthTracker(
        HealthPolicy(
            suspect_after=1, quarantine_after=2, probation_after=5.0, recover_after=2
        )
    )


class TestHealthTracker:
    def test_unknown_entities_are_healthy(self, tracker):
        assert tracker.state("m0") is HealthState.HEALTHY
        assert tracker.states() == {}

    def test_escalation_to_quarantine(self, tracker):
        # suspect_after=1: first failure suspects.  quarantine_after=2
        # counts failures *while suspect* (entry reset the counter), so
        # the total run to quarantine is 1 + 2 = 3.
        assert tracker.observe_failure("m0", 1.0) is HealthState.SUSPECT
        assert tracker.observe_failure("m0", 2.0) is HealthState.SUSPECT
        assert tracker.observe_failure("m0", 3.0) is HealthState.QUARANTINED
        assert [t.new for t in tracker.transitions] == [
            HealthState.SUSPECT,
            HealthState.QUARANTINED,
        ]

    def test_parole_then_full_recovery(self, tracker):
        for t in (1.0, 2.0, 3.0):
            tracker.observe_failure("m0", t)
        # Probation window counts from quarantine entry (t=3).
        assert tracker.tick(7.0) == []
        paroled = tracker.tick(8.0)
        assert [p.new for p in paroled] == [HealthState.RECOVERED]
        # recover_after=2 successes promote back to healthy.
        assert tracker.observe_success("m0", 9.0) is HealthState.RECOVERED
        assert tracker.observe_success("m0", 10.0) is HealthState.HEALTHY

    def test_failure_during_probation_requarantines(self, tracker):
        for t in (1.0, 2.0, 3.0):
            tracker.observe_failure("m0", t)
        tracker.tick(8.0)
        assert tracker.observe_failure("m0", 9.0) is HealthState.QUARANTINED
        assert tracker.transitions[-1].reason == "failure during probation"

    def test_failure_while_quarantined_extends_window(self, tracker):
        for t in (1.0, 2.0, 3.0):
            tracker.observe_failure("m0", t)
        tracker.observe_failure("m0", 6.0)  # pushes `since` to 6.0
        assert tracker.tick(8.5) == []
        assert tracker.tick(11.0) != []

    def test_completion_counts_only_during_probation(self, tracker):
        # A suspect machine finishing tasks is not evidence it stopped
        # crashing: completions must not erase crash history.
        tracker.observe_failure("m0", 1.0)
        for t in (2.0, 3.0, 4.0):
            assert tracker.observe_completion("m0", t) is HealthState.SUSPECT
        assert tracker.observe_failure("m0", 5.0) is HealthState.SUSPECT
        assert tracker.observe_failure("m0", 6.0) is HealthState.QUARANTINED
        tracker.tick(12.0)
        assert tracker.observe_completion("m0", 13.0) is HealthState.RECOVERED
        assert tracker.observe_completion("m0", 14.0) is HealthState.HEALTHY

    def test_quarantine_records_its_transition(self, tracker):
        for t in (1.0, 2.0, 3.0):
            tracker.observe_failure("m0", t)
        entered = [tr for tr in tracker.transitions if tr.new is HealthState.QUARANTINED]
        assert len(entered) == 1
        assert entered[0].entity == "m0"
        assert entered[0].old is HealthState.SUSPECT
        assert entered[0].at == 3.0

    def test_counts(self, tracker):
        tracker.observe_failure("m0", 1.0)
        tracker.observe_success("m1", 1.0)
        counts = tracker.counts()
        assert counts["suspect"] == 1
        assert counts["healthy"] == 1
        assert counts["quarantined"] == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HealthPolicy(suspect_after=0)
        with pytest.raises(ValueError):
            HealthPolicy(probation_after=0.0)
