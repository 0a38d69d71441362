"""Unit tests for the retry/backoff policy and the fault log."""

import random

import pytest

from repro.core.resilience import FaultLog, RetryPolicy


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.max_attempts == 3
        assert policy.quarantine_after == 2

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(
            backoff_base_ms=10.0, backoff_cap_ms=35.0, jitter=0.0
        )
        rng = random.Random(0)
        waits = [policy.backoff_seconds(a, rng) for a in range(4)]
        assert waits == [0.010, 0.020, 0.035, 0.035]

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(backoff_base_ms=100.0, jitter=0.25)

        def draws():
            rng = random.Random(11)
            return [policy.backoff_seconds(0, rng) for _ in range(20)]

        first, second = draws(), draws()
        assert first == second
        for w in first:
            assert 0.075 <= w <= 0.125
        assert len(set(first)) > 1  # jitter actually varies

    def test_zero_base_means_no_wait(self):
        policy = RetryPolicy(backoff_base_ms=0.0, jitter=0.0)
        assert policy.backoff_seconds(5, random.Random(0)) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_ms": -1.0},
            {"backoff_base_ms": 10.0, "backoff_cap_ms": 5.0},
            {"jitter": 1.0},
            {"jitter": -0.1},
            {"quarantine_after": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_backoff_base_rejected(self, bad):
        # SearchConfig lifts the cap to max(5000, base), so the cap check
        # alone let inf through (crashing the first retry in time.sleep)
        # and nan too (logging wait_seconds=nan).
        with pytest.raises(ValueError, match="backoff_base_ms"):
            RetryPolicy(backoff_base_ms=bad, backoff_cap_ms=float("inf"))

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_seconds(-1, random.Random(0))


class TestFaultLog:
    def test_totals_roll_up_across_devices(self):
        log = FaultLog.for_devices(3)
        log.record_attempt(0)
        log.record_failure(0, 1, "tensor4", "transient")
        log.record_retry(0, 1, "tensor4", "transient", wait=0.010)
        log.record_attempt(2)
        log.record_failure(2, 4, "combine", "persistent")
        assert log.record_requeue(2, 4, "combine", "persistent") == 1
        log.record_quarantine(2, wi=4)
        log.record_degraded_round(1, 0, "corrupt")

        assert log.total_failures == 2
        assert log.total_retries == 1
        assert log.total_requeues == 1
        assert log.total_degraded_rounds == 1
        assert log.total_backoff_seconds == pytest.approx(0.010)
        assert log.quarantined_devices == [2]
        assert log.any_activity

    def test_success_resets_consecutive_exhausted(self):
        log = FaultLog.for_devices(1)
        assert log.record_requeue(0, 0, "tensor4", "transient") == 1
        log.record_success(0)
        assert log.record_requeue(0, 1, "tensor4", "transient") == 1
        assert log.record_requeue(0, 2, "tensor4", "transient") == 2

    def test_fresh_log_has_no_activity(self):
        log = FaultLog.for_devices(2)
        assert not log.any_activity
        # attempts alone (no failures) do not count as activity
        log.record_attempt(0)
        assert not log.any_activity

    def test_summary_lines_mark_quarantine(self):
        log = FaultLog.for_devices(2)
        log.record_quarantine(1)
        lines = log.summary_lines()
        assert len(lines) == 2
        assert "healthy" in lines[0]
        assert "QUARANTINED" in lines[1]

    def test_incident_trail_records_actions(self):
        log = FaultLog.for_devices(1)
        log.record_retry(0, 3, "tensor4", "transient", wait=0.002)
        log.record_requeue(0, 3, "tensor4", "transient")
        log.record_quarantine(0, wi=3)
        actions = [i.action for i in log.incidents]
        assert actions == ["retry", "requeue", "quarantine"]
        assert all(i.device_id == 0 for i in log.incidents)
