"""Bounded admission control for the cluster front end.

Three gates run, in order, on every submission; the first to fail sheds
the request with a structured :class:`~repro.errors.OverloadedError`
(HTTP 429 + ``Retry-After``) instead of letting queues grow without
limit:

1. **Queue watermark.**  Once the cluster-wide queue depth (summed over
   shards) crosses the high watermark, everything sheds until the
   backlog drains — the load-shedding backstop.
2. **Global token bucket.**  Sustained submission rate is capped at
   ``rate`` requests/second with bursts up to ``burst``; a shed here
   reports exactly how long until the next token as ``retry_after``.
3. **Weighted fair shares.**  Each tenant owns a weighted share of the
   in-flight budget (weight / sum of active tenants' weights, times the
   watermark).  The gate only bites under contention — another tenant
   has work in flight *and* total in-flight admissions have reached the
   contention threshold.  A lone tenant may always borrow the whole
   cluster (only the queue watermark bounds it), while among several a
   greedy tenant is shed back to its share and light tenants sail
   through: weighted max-min fairness over the shards' pending queues.

The decision itself is :func:`admission_gate`, a pure function of the
tenant table, the queue depth and the clock.  The controller wraps it
with a lock and the bookkeeping: it is thread-safe (HTTP submissions
and shard collector completions race) and purely mechanical — no
background threads; state advances only inside
:meth:`AdmissionController.admit` and
:meth:`AdmissionController.release` calls.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Mapping, NamedTuple

from repro.errors import ConfigError

#: Queue-depth watermark above which everything sheds.
DEFAULT_WATERMARK = 256
#: Token-bucket defaults: None disables rate limiting.
DEFAULT_RATE = None
DEFAULT_BURST = 64
#: Fraction of the watermark at which fair-share enforcement starts.
CONTENTION_FRACTION = 0.5
#: Retry-After for queue and fair-share sheds (seconds).
DEFAULT_RETRY_AFTER = 1.0

#: Shed reasons (the ``reason`` field of OverloadedError and the
#: per-reason counters in /metrics).
SHED_QUEUE = "queue"
SHED_RATE = "rate"
SHED_FAIR_SHARE = "fair-share"


class TokenBucket:
    """A monotonic-clock token bucket.

    Args:
        rate: Sustained tokens/second.
        burst: Bucket capacity (initial and maximum tokens).
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ConfigError(f"token rate must be > 0, got {rate}")
        if burst < 1:
            raise ConfigError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._tokens = float(burst)
        self._refilled_at: float | None = None

    def _level(self, now: float) -> float:
        """Tokens available at time *now* (no state change)."""
        if self._refilled_at is not None and now > self._refilled_at:
            return min(
                self.burst, self._tokens + (now - self._refilled_at) * self.rate
            )
        return self._tokens

    def wait(self, now: float, cost: float = 1.0) -> float:
        """Seconds until *cost* tokens are available at time *now*
        (0.0 when they already are); leaves the bucket untouched."""
        return max(0.0, (cost - self._level(now)) / self.rate)

    def consume(self, now: float, cost: float = 1.0) -> tuple[bool, float]:
        """Try to take *cost* tokens at time *now*.

        Returns ``(True, 0.0)`` on success, else ``(False, wait)``
        where *wait* is the time until the deficit refills.
        """
        self._tokens = self._level(now)
        self._refilled_at = now
        if self._tokens >= cost:
            self._tokens -= cost
            return True, 0.0
        return False, (cost - self._tokens) / self.rate


class _Tenant:
    """Per-tenant admission accounting."""

    __slots__ = ("weight", "inflight", "accepted", "shed")

    def __init__(self, weight: float) -> None:
        self.weight = weight
        self.inflight = 0
        self.accepted = 0
        self.shed = 0


class TenantLoad(NamedTuple):
    """What the gate reads of one tenant (the controller's per-tenant
    records carry the same two fields)."""

    weight: float
    inflight: int


def admission_gate(
    tenants: Mapping[str, TenantLoad],
    tenant: str,
    queue_depth: int,
    now: float,
    watermark: int,
    bucket: TokenBucket | None = None,
) -> tuple[str, float | None] | None:
    """The three gates, in order, for one submission by *tenant*.

    A pure function: *tenants* maps every known tenant (*tenant*
    included) to its weight and in-flight count, and *bucket* is only
    read.  Returns None to admit, else ``(reason, retry_after)`` where
    a None *retry_after* means the caller's default.
    """
    if queue_depth >= watermark:
        return SHED_QUEUE, None
    if bucket is not None:
        wait = bucket.wait(now)
        if wait > 0:
            return SHED_RATE, wait
    others = [
        record
        for name, record in tenants.items()
        if name != tenant and record.inflight > 0
    ]
    if not others:
        return None  # no one to be fair to: a lone tenant borrows all
    record = tenants[tenant]
    total_inflight = record.inflight + sum(other.inflight for other in others)
    if total_inflight < math.ceil(watermark * CONTENTION_FRACTION):
        return None  # idle capacity: anyone may borrow
    active_weight = record.weight + sum(other.weight for other in others)
    share = math.ceil(watermark * record.weight / active_weight)
    if record.inflight + 1 > max(1, share):
        return SHED_FAIR_SHARE, None
    return None


class AdmissionDecision:
    """The outcome of one :meth:`AdmissionController.admit` call.

    Attributes:
        accepted: Whether the submission may proceed.
        reason: Shed reason (None when accepted).
        retry_after: Seconds to wait before retrying (0 when accepted).
    """

    __slots__ = ("accepted", "reason", "retry_after")

    def __init__(
        self, accepted: bool, reason: str | None = None, retry_after: float = 0.0
    ) -> None:
        self.accepted = accepted
        self.reason = reason
        self.retry_after = retry_after


class AdmissionController:
    """Watermark + token-bucket + weighted-fair-share admission.

    Args:
        watermark: Cluster queue depth above which everything sheds.
        rate: Global sustained submissions/second (None: unlimited).
        burst: Token-bucket capacity when *rate* is set.
        weights: Per-tenant weights; unknown tenants get
            *default_weight*.
        default_weight: Weight for tenants not listed in *weights*.
        retry_after: Retry-After for queue/fair-share sheds.
    """

    def __init__(
        self,
        watermark: int = DEFAULT_WATERMARK,
        rate: float | None = DEFAULT_RATE,
        burst: float = DEFAULT_BURST,
        weights: dict[str, float] | None = None,
        default_weight: float = 1.0,
        retry_after: float = DEFAULT_RETRY_AFTER,
    ) -> None:
        if watermark < 1:
            raise ConfigError(f"watermark must be >= 1, got {watermark}")
        if default_weight <= 0:
            raise ConfigError(
                f"default tenant weight must be > 0, got {default_weight}"
            )
        for tenant, weight in (weights or {}).items():
            if weight <= 0:
                raise ConfigError(
                    f"tenant {tenant!r} weight must be > 0, got {weight}"
                )
        self.watermark = watermark
        self.default_weight = default_weight
        self.retry_after = retry_after
        self._weights = dict(weights or {})
        self._bucket = (
            TokenBucket(rate, burst) if rate is not None else None
        )
        self._lock = threading.Lock()
        self._tenants: dict[str, _Tenant] = {}
        self._accepted = 0
        self._shed = {SHED_QUEUE: 0, SHED_RATE: 0, SHED_FAIR_SHARE: 0}

    def _tenant(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = _Tenant(self._weights.get(name, self.default_weight))
            self._tenants[name] = tenant
        return tenant

    # ------------------------------------------------------------------
    # The admission decision
    # ------------------------------------------------------------------

    def admit(
        self,
        tenant: str = "default",
        queue_depth: int = 0,
        now: float | None = None,
    ) -> AdmissionDecision:
        """Decide one submission for *tenant* given the current
        cluster-wide *queue_depth*.

        An accepted submission MUST be paired with exactly one
        :meth:`release` call when its job reaches a terminal state (or
        completes instantly from the store) — in-flight accounting is
        what the fairness gate runs on.
        """
        if now is None:
            now = time.monotonic()
        with self._lock:
            record = self._tenant(tenant)
            shed = admission_gate(
                self._tenants, tenant, queue_depth, now,
                self.watermark, self._bucket,
            )
            if shed is not None:
                reason, retry_after = shed
                if retry_after is None:
                    retry_after = self.retry_after
                record.shed += 1
                self._shed[reason] += 1
                return AdmissionDecision(False, reason, max(retry_after, 0.001))
            if self._bucket is not None:
                self._bucket.consume(now)
            record.inflight += 1
            record.accepted += 1
            self._accepted += 1
            return AdmissionDecision(True)

    def release(self, tenant: str = "default") -> None:
        """Mark one previously admitted submission finished."""
        with self._lock:
            record = self._tenant(tenant)
            if record.inflight > 0:
                record.inflight -= 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def counters(self) -> dict:
        """Accept/shed counters, total and per tenant (the
        ``admission`` block of the cluster ``/metrics``)."""
        with self._lock:
            shed_total = sum(self._shed.values())
            decided = self._accepted + shed_total
            return {
                "accepted": self._accepted,
                "shed": shed_total,
                "shed_rate": shed_total / decided if decided else 0.0,
                "shed_by_reason": dict(self._shed),
                "watermark": self.watermark,
                "tenants": {
                    name: {
                        "weight": t.weight,
                        "inflight": t.inflight,
                        "accepted": t.accepted,
                        "shed": t.shed,
                    }
                    for name, t in sorted(self._tenants.items())
                },
            }
