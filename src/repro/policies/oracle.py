"""Belady-style oracle local policy.

Evicts the resident trace whose *next use* is farthest in the future
(never-used-again first), with first-fit placement.  Unimplementable
in a real dynamic optimizer — it requires the future — but it bounds
what any local policy could achieve on a given log, so the headroom
experiment can report how much of the FIFO→optimal gap the
generational hierarchy closes.

For variable-size contiguous allocation true Belady is NP-hard; this
is the standard greedy approximation: evict farthest-next-use
candidates until a contiguous hole fits.

The oracle is fed the access schedule up front
(:meth:`OracleCache.load_schedule`), typically extracted from a trace
log with :func:`access_schedule`.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.errors import CacheFullError, TraceTooLargeError
from repro.policies.base import CachedTrace, CodeCache
from repro.tracelog.records import TraceAccess, TraceLog

#: Sentinel "never used again" distance.
NEVER = float("inf")


def access_schedule(log: TraceLog) -> dict[int, list[int]]:
    """Extract each trace's sorted access times from a log."""
    schedule: dict[int, list[int]] = {}
    for record in log.records:
        if isinstance(record, TraceAccess):
            schedule.setdefault(record.trace_id, []).append(record.time)
    return schedule


class OracleCache(CodeCache):
    """Farthest-next-use eviction with first-fit placement."""

    policy_name = "oracle"

    def __init__(self, capacity: int, name: str = "cache") -> None:
        super().__init__(capacity, name)
        self._schedule: dict[int, list[int]] = {}
        self._now = 0

    def load_schedule(self, schedule: dict[int, list[int]]) -> None:
        """Install the future access times per trace (sorted)."""
        self._schedule = schedule

    def observe_time(self, time: int) -> None:
        """Advance the oracle's notion of 'now' (the simulator calls
        this through the manager on every access/insert)."""
        if time > self._now:
            self._now = time

    def next_use(self, trace_id: int) -> float:
        """Time of the next access to *trace_id* strictly after now."""
        times = self._schedule.get(trace_id)
        if not times:
            return NEVER
        index = bisect_right(times, self._now)
        if index >= len(times):
            return NEVER
        return float(times[index])

    def _allocate(self, trace: CachedTrace) -> tuple[int, list[int]]:
        size = trace.size
        if size > self.capacity:
            raise TraceTooLargeError(
                f"trace {trace.trace_id} ({size} B) exceeds cache "
                f"{self.name!r} capacity ({self.capacity} B)"
            )
        start = self.arena.first_fit(size)
        if start is not None:
            return start, []
        candidates = sorted(
            (t for t in self._traces.values() if not t.pinned),
            key=lambda t: (-self.next_use(t.trace_id), t.trace_id),
        )
        evicted: list[int] = []
        freed: list[tuple[int, int]] = []
        for victim in candidates:
            placement = self.arena.placement_of(victim.trace_id)
            evicted.append(victim.trace_id)
            freed.append((placement.start, placement.end))
            start = self._fit_with_freed(size, freed)
            if start is not None:
                return start, evicted
        raise CacheFullError(
            f"cache {self.name!r}: pinned traces prevent placing {size} B"
        )

    def _fit_with_freed(self, size: int, freed: list[tuple[int, int]]) -> int | None:
        ranges = self.arena.holes() + freed
        ranges.sort()
        merged: list[tuple[int, int]] = []
        for lo, hi in ranges:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        for lo, hi in merged:
            if hi - lo >= size:
                return lo
        return None

    def _after_insert(self, trace: CachedTrace, start: int) -> None:
        self.observe_time(trace.insert_time)

    def _after_touch(self, trace: CachedTrace) -> None:
        self.observe_time(trace.last_access)
