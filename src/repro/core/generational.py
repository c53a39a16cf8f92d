"""Generational code-cache management (Section 5, Figures 7 and 8).

Three caches, most-junior first:

* **nursery** — every newly generated trace is inserted here;
* **probation** — a victim-cache-like filter: traces evicted from the
  nursery land here and must prove they are still live;
* **persistent** — traces that hit in probation (reaching the promotion
  threshold) are relocated here and protected from nursery churn.

Traces evicted from probation without reaching the threshold, and
traces evicted from the persistent cache, are deleted — they must be
regenerated if executed again.  Each cache runs the paper's
pseudo-circular local policy (configurable).

The entry point mirroring Figure 8's ``insertNewTrace`` is
:meth:`GenerationalCacheManager._insert_new_trace`; unlike the
pseudocode, the implementation handles the general case where placing
one trace displaces *several* residents, cascading each displacement
through the same promotion rules.
"""

from __future__ import annotations

from repro.core.config import GenerationalConfig, PromotionMode
from repro.core.manager import (
    AccessOutcome,
    CacheManager,
    Effect,
    Evicted,
    EvictionReason,
    Inserted,
    Promoted,
)
from repro.errors import ConfigError
from repro.policies import POLICIES
from repro.policies.base import CachedTrace, CodeCache

NURSERY = "nursery"
PROBATION = "probation"
PERSISTENT = "persistent"


class GenerationalCacheManager(CacheManager):
    """Nursery / probation / persistent hierarchy."""

    # Every residency change (insert cascades, promotions, unmaps)
    # emits its effect, so the effect stream is complete.
    fastpath_safe = True

    def __init__(self, total_capacity: int, config: GenerationalConfig) -> None:
        policy_class = POLICIES.get(config.local_policy)
        if policy_class is None:
            raise ConfigError(
                f"unknown local policy {config.local_policy!r}; "
                f"choose from {sorted(POLICIES)}"
            )
        nursery_size, probation_size, persistent_size = config.sizes(total_capacity)
        kwargs = {}
        if config.local_policy == "pseudo-circular":
            kwargs["fill_holes"] = config.fill_holes
        self.nursery: CodeCache = policy_class(nursery_size, name=NURSERY, **kwargs)
        self.probation: CodeCache = policy_class(
            probation_size, name=PROBATION, **kwargs
        )
        self.persistent: CodeCache = policy_class(
            persistent_size, name=PERSISTENT, **kwargs
        )
        self.config = config
        self.name = f"generational[{config.label()}]"
        self._by_name = {
            NURSERY: self.nursery,
            PROBATION: self.probation,
            PERSISTENT: self.persistent,
        }
        # Hoisted for the per-hit fast path.
        self._promote_on_hit = config.promotion_mode is PromotionMode.ON_HIT
        self._threshold = config.promotion_threshold

    def caches(self) -> list[CodeCache]:
        return [self.nursery, self.probation, self.persistent]

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------

    def on_hit(self, trace_id: int, time: int, count: int = 1) -> AccessOutcome:
        """Record a hit; in on-hit promotion mode a probation hit that
        reaches the threshold relocates the trace to the persistent
        cache immediately."""
        for cache in self.caches():
            if trace_id in cache:
                trace = cache.touch(trace_id, time, count)
                effects: list[Effect] = []
                if (
                    cache is self.probation
                    and self.config.promotion_mode is PromotionMode.ON_HIT
                    and trace.access_count >= self.config.promotion_threshold
                    and not trace.pinned
                ):
                    self._promote(trace, self.probation, self.persistent, time, effects)
                return AccessOutcome(cache=cache.name, effects=effects)
        raise KeyError(f"on_hit called for non-resident trace {trace_id}")

    def hit_resident(
        self, trace_id: int, time: int, count: int, cache_name: str
    ) -> list[Effect] | tuple[()]:
        """:meth:`on_hit` minus the residency scan — *cache_name* comes
        from the fast path's effect-derived residency map."""
        cache = self._by_name[cache_name]
        trace = cache.touch_resident(trace_id, time, count)
        if (
            self._promote_on_hit
            and cache is self.probation
            and trace.access_count >= self._threshold
            and not trace.pinned
        ):
            effects: list[Effect] = []
            self._promote(trace, self.probation, self.persistent, time, effects)
            return effects
        return ()

    def hit_handler(self, cache_name: str):
        cache = self._by_name[cache_name]
        if cache is self.probation and self._promote_on_hit:
            return self._probation_hit
        # Nursery/persistent hits never emit effects, and neither do
        # probation hits under on-eviction promotion.
        return cache.record_hits

    def plain_hit_caches(self) -> frozenset[str]:
        plain = {
            cache.name
            for cache in (self.nursery, self.persistent)
            if cache.plain_touch
        }
        # Probation hits stay plain only under on-eviction promotion;
        # on-hit mode must run the threshold check on every hit.
        if self.probation.plain_touch and not self._promote_on_hit:
            plain.add(PROBATION)
        return frozenset(plain)

    def _probation_hit(self, trace_id: int, time: int, count: int):
        """Probation hit handler under on-hit promotion: touch, then
        relocate to the persistent cache once the threshold is met."""
        trace = self.probation.touch_resident(trace_id, time, count)
        if trace.access_count >= self._threshold and not trace.pinned:
            effects: list[Effect] = []
            self._promote(trace, self.probation, self.persistent, time, effects)
            return effects
        return ()

    # ------------------------------------------------------------------
    # Insertions (Figure 8)
    # ------------------------------------------------------------------

    def insert(
        self, trace_id: int, size: int, module_id: int, time: int
    ) -> list[Effect]:
        """Insert a newly generated trace into the nursery, cascading
        displaced traces per the generational rules."""
        effects: list[Effect] = []
        self._insert_new_trace(trace_id, size, module_id, time, effects)
        return effects

    def _insert_new_trace(
        self,
        trace_id: int,
        size: int,
        module_id: int,
        time: int,
        effects: list[Effect],
    ) -> None:
        """The Figure 8 algorithm, generalized to multi-victim
        placements: every trace the nursery placement displaces is
        promoted to probation; every trace *that* displaces either
        graduates to the persistent cache (if its probation hit count
        met the threshold) or dies; persistent victims die.

        A trace too large for the nursery (possible under extreme
        proportions) is placed directly in the largest cache that fits
        it, so an oversized trace degrades placement instead of
        aborting the run.  A trace no cache can hold stays uncached —
        the system executes it from the basic-block cache, paying a
        regeneration on every entry."""
        if size > self.nursery.capacity:
            fitting = [c for c in self.caches() if c.capacity >= size]
            if not fitting:
                return  # uncacheable: no cache will ever hold it
            fallback = max(fitting, key=lambda cache: cache.capacity)
            result = fallback.insert(trace_id, size, module_id, time)
            effects.append(
                Inserted(trace_id=trace_id, size=size, cache=fallback.name)
            )
            for victim in result.evicted:
                if fallback is self.probation:
                    self._handle_probation_eviction(victim, time, effects)
                else:
                    effects.append(
                        Evicted(
                            trace_id=victim.trace_id,
                            size=victim.size,
                            cache=fallback.name,
                            reason=EvictionReason.CAPACITY,
                        )
                    )
            return
        result = self.nursery.insert(trace_id, size, module_id, time)
        effects.append(Inserted(trace_id=trace_id, size=size, cache=NURSERY))
        for victim in result.evicted:
            self._handle_nursery_eviction(victim, time, effects)

    def _handle_nursery_eviction(
        self, victim: CachedTrace, time: int, effects: list[Effect]
    ) -> None:
        """A trace has 'come of age' (evicted from the nursery): move
        it to the probation cache."""
        self._promote(victim, self.nursery, self.probation, time, effects)

    def _handle_probation_eviction(
        self, victim: CachedTrace, time: int, effects: list[Effect]
    ) -> None:
        """Probation eviction: graduate or die (Section 5.3)."""
        should_promote = (
            self.config.promotion_mode is PromotionMode.ON_EVICTION
            and victim.access_count >= self.config.promotion_threshold
        )
        if should_promote:
            self._promote(victim, self.probation, self.persistent, time, effects)
        else:
            effects.append(
                Evicted(
                    trace_id=victim.trace_id,
                    size=victim.size,
                    cache=PROBATION,
                    reason=EvictionReason.CAPACITY,
                )
            )

    def _promote(
        self,
        trace: CachedTrace,
        src: CodeCache,
        dst: CodeCache,
        time: int,
        effects: list[Effect],
    ) -> None:
        """Relocate *trace* from *src* to *dst*, cascading the traces
        the relocation displaces.

        The trace may already be detached from *src* (when it arrived
        here as an eviction victim); if still resident it is removed
        first.  A trace too large for *dst* cannot be relocated and is
        deleted instead.
        """
        if trace.trace_id in src:
            src.remove(trace.trace_id)
        if trace.size > dst.capacity:
            effects.append(
                Evicted(
                    trace_id=trace.trace_id,
                    size=trace.size,
                    cache=src.name,
                    reason=EvictionReason.CAPACITY,
                )
            )
            return
        result = dst.insert(trace.trace_id, trace.size, trace.module_id, time)
        # Promotion preserves the pin — an undeletable trace is never a
        # local-policy victim, so this path only runs for on-hit
        # promotions of unpinned traces; the guard is belt-and-braces.
        if trace.pinned:
            dst.pin(trace.trace_id)
        effects.append(
            Promoted(
                trace_id=trace.trace_id,
                size=trace.size,
                src=src.name,
                dst=dst.name,
            )
        )
        for victim in result.evicted:
            if dst is self.probation:
                self._handle_probation_eviction(victim, time, effects)
            else:  # dst is self.persistent
                effects.append(
                    Evicted(
                        trace_id=victim.trace_id,
                        size=victim.size,
                        cache=PERSISTENT,
                        reason=EvictionReason.CAPACITY,
                    )
                )
