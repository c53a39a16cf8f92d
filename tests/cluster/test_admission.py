"""Admission-control gate tests (watermark, token bucket, fair share).

Every clock-bearing call takes an explicit ``now``, so the token-bucket
timing is tested deterministically with no sleeping.
"""

from __future__ import annotations

import pytest

from repro.cluster.admission import (
    AdmissionController,
    TenantLoad,
    TokenBucket,
    admission_gate,
)
from repro.errors import ConfigError


class TestTokenBucket:
    def test_burst_then_deficit(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        assert bucket.consume(0.0) == (True, 0.0)
        assert bucket.consume(0.0) == (True, 0.0)
        ok, wait = bucket.consume(0.0)
        assert not ok
        assert wait == pytest.approx(0.1)

    def test_refill_over_time(self):
        bucket = TokenBucket(rate=10.0, burst=1)
        assert bucket.consume(0.0)[0]
        assert not bucket.consume(0.0)[0]
        assert bucket.consume(0.2)[0]  # 2 tokens accrued, capped at 1

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=1)
        assert bucket.consume(0.0)[0]
        # A long idle stretch still refills to at most `burst`.
        assert bucket.consume(100.0)[0]
        assert not bucket.consume(100.0)[0]

    def test_validation(self):
        with pytest.raises(ConfigError, match="rate"):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ConfigError, match="burst"):
            TokenBucket(rate=1.0, burst=0)


class TestWatermark:
    def test_sheds_above_watermark(self):
        control = AdmissionController(watermark=4)
        decision = control.admit("a", queue_depth=4)
        assert not decision.accepted
        assert decision.reason == "queue"
        assert decision.retry_after > 0

    def test_admits_below_watermark(self):
        control = AdmissionController(watermark=4)
        decision = control.admit("a", queue_depth=3)
        assert decision.accepted
        assert decision.reason is None
        assert decision.retry_after == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError, match="watermark"):
            AdmissionController(watermark=0)
        with pytest.raises(ConfigError, match="weight"):
            AdmissionController(weights={"a": 0.0})
        with pytest.raises(ConfigError, match="weight"):
            AdmissionController(default_weight=-1.0)


class TestRateGate:
    def test_rate_shed_reports_token_deficit(self):
        control = AdmissionController(watermark=100, rate=10.0, burst=1)
        assert control.admit("a", queue_depth=0, now=0.0).accepted
        decision = control.admit("a", queue_depth=0, now=0.0)
        assert not decision.accepted
        assert decision.reason == "rate"
        assert decision.retry_after == pytest.approx(0.1)

    def test_rate_recovers(self):
        control = AdmissionController(watermark=100, rate=10.0, burst=1)
        assert control.admit("a", queue_depth=0, now=0.0).accepted
        assert control.admit("a", queue_depth=0, now=0.5).accepted


class TestFairShare:
    def test_greedy_tenant_shed_under_contention(self):
        # watermark 8 -> contention threshold 4, so once 4 submissions
        # are in flight a lone tenant's share is the full watermark but
        # a second active tenant halves it.
        control = AdmissionController(watermark=8)
        for _ in range(6):
            assert control.admit("greedy", queue_depth=0).accepted
        # greedy alone: active weight 1, share 8 -> still admitted.
        assert control.admit("light", queue_depth=0).accepted
        # Now two active tenants: greedy's share is ceil(8 * 1/2) = 4,
        # and it already holds 6 -> shed.
        decision = control.admit("greedy", queue_depth=0)
        assert not decision.accepted
        assert decision.reason == "fair-share"
        # The light tenant is still within its share.
        assert control.admit("light", queue_depth=0).accepted

    def test_no_fairness_below_contention(self):
        control = AdmissionController(watermark=100)
        # 49 in flight < contention threshold 50: borrow freely.
        for _ in range(49):
            assert control.admit("greedy", queue_depth=0).accepted

    def test_release_restores_share(self):
        control = AdmissionController(watermark=8)
        for _ in range(6):
            assert control.admit("greedy", queue_depth=0).accepted
        assert control.admit("light", queue_depth=0).accepted
        assert not control.admit("greedy", queue_depth=0).accepted
        for _ in range(3):
            control.release("greedy")
        assert control.admit("greedy", queue_depth=0).accepted

    def test_weighted_share(self):
        control = AdmissionController(
            watermark=8, weights={"heavy": 3.0, "light": 1.0}
        )
        for _ in range(4):
            assert control.admit("heavy", queue_depth=0).accepted
        assert control.admit("light", queue_depth=0).accepted
        # heavy's share is ceil(8 * 3/4) = 6: two more fit.
        assert control.admit("heavy", queue_depth=0).accepted
        assert control.admit("heavy", queue_depth=0).accepted
        assert not control.admit("heavy", queue_depth=0).accepted
        # light's share is ceil(8 * 1/4) = 2: one more fits.
        assert control.admit("light", queue_depth=0).accepted
        assert not control.admit("light", queue_depth=0).accepted


class TestGate:
    """The pure decision function: no controller, no server, no clock."""

    def test_lone_tenant_is_never_shed_for_fair_share(self):
        # The lone tenant's first job is running (queue depth 0) and
        # it holds the whole in-flight budget: only the queue gate may
        # stop it, and the queue is empty.
        tenants = {"t": TenantLoad(weight=1.0, inflight=1)}
        assert admission_gate(tenants, "t", 0, 0.0, watermark=1) is None
        tenants = {"t": TenantLoad(weight=1.0, inflight=500)}
        assert admission_gate(tenants, "t", 3, 0.0, watermark=4) is None

    def test_lone_tenant_is_bounded_by_the_queue(self):
        tenants = {"t": TenantLoad(weight=1.0, inflight=2)}
        assert admission_gate(tenants, "t", 1, 0.0, watermark=1) == (
            "queue",
            None,
        )

    def test_idle_other_tenants_do_not_count(self):
        tenants = {
            "t": TenantLoad(weight=1.0, inflight=8),
            "idle": TenantLoad(weight=1.0, inflight=0),
        }
        assert admission_gate(tenants, "t", 0, 0.0, watermark=8) is None

    def test_fair_share_needs_another_tenant_in_flight(self):
        tenants = {
            "t": TenantLoad(weight=1.0, inflight=4),
            "u": TenantLoad(weight=1.0, inflight=1),
        }
        # share = ceil(8 * 1/2) = 4, and t already holds 4.
        assert admission_gate(tenants, "t", 0, 0.0, watermark=8) == (
            "fair-share",
            None,
        )
        assert admission_gate(tenants, "u", 0, 0.0, watermark=8) is None

    def test_fair_share_waits_for_contention(self):
        tenants = {
            "t": TenantLoad(weight=1.0, inflight=2),
            "u": TenantLoad(weight=1.0, inflight=1),
        }
        # 3 in flight < contention threshold ceil(8 * 0.5) = 4.
        assert admission_gate(tenants, "t", 0, 0.0, watermark=8) is None

    def test_queue_gate_runs_first(self):
        tenants = {
            "t": TenantLoad(weight=1.0, inflight=9),
            "u": TenantLoad(weight=1.0, inflight=9),
        }
        bucket = TokenBucket(rate=1.0, burst=1)
        bucket.consume(0.0)
        assert admission_gate(tenants, "t", 8, 0.0, 8, bucket) == ("queue", None)
        assert admission_gate(tenants, "t", 0, 0.0, 8, bucket) == ("rate", 1.0)

    def test_gate_leaves_the_bucket_untouched(self):
        tenants = {"t": TenantLoad(weight=1.0, inflight=0)}
        bucket = TokenBucket(rate=10.0, burst=1)
        for _ in range(3):
            assert admission_gate(tenants, "t", 0, 0.0, 8, bucket) is None
        assert bucket.consume(0.0) == (True, 0.0)

    def test_controller_lone_tenant_fills_to_the_watermark(self):
        # The queue-depth case the cluster front end sees with one busy
        # worker: every admitted job leaves the queue empty.
        control = AdmissionController(watermark=1)
        for _ in range(5):
            assert control.admit("t", queue_depth=0).accepted
        decision = control.admit("t", queue_depth=1)
        assert (decision.accepted, decision.reason) == (False, "queue")
        assert control.counters()["shed_by_reason"]["fair-share"] == 0


class TestAccounting:
    def test_release_never_underflows(self):
        control = AdmissionController(watermark=4)
        control.release("ghost")
        counters = control.counters()
        assert counters["tenants"]["ghost"]["inflight"] == 0

    def test_counters_shape(self):
        control = AdmissionController(watermark=4)
        assert control.admit("a", queue_depth=0).accepted
        assert not control.admit("a", queue_depth=9).accepted
        counters = control.counters()
        assert counters["accepted"] == 1
        assert counters["shed"] == 1
        assert counters["shed_rate"] == pytest.approx(0.5)
        assert counters["shed_by_reason"] == {
            "queue": 1,
            "rate": 0,
            "fair-share": 0,
        }
        assert counters["watermark"] == 4
        tenant = counters["tenants"]["a"]
        assert tenant == {
            "weight": 1.0,
            "inflight": 1,
            "accepted": 1,
            "shed": 1,
        }
