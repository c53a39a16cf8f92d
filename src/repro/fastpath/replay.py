"""The batched replay loop over a compiled log.

Semantically a line-for-line mirror of
:meth:`repro.cachesim.simulator.CacheSimulator`'s record handlers, but
restructured for throughput:

* **table dispatch** over the packed opcode column — integer compares
  against hoisted opcode constants instead of one ``isinstance`` chain
  per record object;
* **no residency lookups** — a ``trace_id -> cache_name`` map is
  maintained from the manager's own effect stream, replacing
  ``manager.lookup`` (a per-access scan over every cache) with one dict
  probe.  This is only sound for managers whose effect streams fully
  describe residency, declared via
  :attr:`repro.core.manager.CacheManager.fastpath_safe`;
* **batched hits** — a resident access calls the manager's
  :meth:`~repro.core.manager.CacheManager.hit_resident` fast hook
  (touch + promotion check, no ``AccessOutcome`` allocation, no cache
  scan) once per compressed record, never materializing per-entry hits;
* **local stats accumulation** — counters live in local variables for
  the whole replay and are flushed into :class:`CacheStats` once.

Overhead-account charges happen in exactly the object path's order, so
float accumulation — and therefore every experiment table — is
byte-identical between the two paths.  The equivalence suite in
``tests/fastpath`` pins this down for every policy and manager config.

The loop never runs with a sanitizer harness attached: sanitizers
observe per-record events and effect streams, which only the object
path produces, so :meth:`CacheSimulator.run` falls back automatically.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.core.effects import Evicted, EvictionReason, Inserted, Promoted
from repro.errors import LogFormatError
from repro.fastpath.compiled import (
    OP_ACCESS,
    OP_CREATE,
    OP_END,
    OP_PIN,
    OP_UNMAP,
    OP_UNPIN,
    CompiledTraceLog,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cachesim.simulator import CacheSimulator

#: Process-wide counters for profiling and the perf-smoke CI job.
FASTPATH_TOTALS = {
    "fast_replays": 0,
    "object_replays": 0,
    "records_replayed": 0,
}


def _enabled_from_env(value: str | None) -> bool:
    return value is None or value.lower() not in ("0", "off", "no", "false")


#: ``REPRO_FASTPATH=0`` (or ``off``/``no``/``false``) forces every
#: replay onto the object path — the A/B switch the perf benchmarks and
#: ``docs/performance.md`` use; any other value (or none) leaves the
#: batched loop on.
_ENABLED = _enabled_from_env(os.environ.get("REPRO_FASTPATH"))


def enable_fastpath() -> None:
    """Re-enable the compiled replay loop (the default)."""
    global _ENABLED
    _ENABLED = True


def disable_fastpath() -> None:
    """Force every replay onto the object path (A/B testing and the
    equivalence suite)."""
    global _ENABLED
    _ENABLED = False


def fastpath_enabled() -> bool:
    """Whether the batched loop may be selected."""
    return _ENABLED


class object_path:
    """Context manager: run the enclosed replays on the object path."""

    def __enter__(self) -> None:
        self._was = _ENABLED
        disable_fastpath()

    def __exit__(self, *exc) -> None:
        global _ENABLED
        _ENABLED = self._was


def replay_compiled(sim: CacheSimulator, compiled: CompiledTraceLog) -> None:
    """Replay *compiled* into *sim*'s manager, stats, and ledger.

    The caller (:meth:`CacheSimulator.run`) guarantees no sanitizer is
    attached and ``sim.manager.fastpath_safe`` is true.
    """
    manager = sim.manager
    account = sim.account
    stats = sim.stats
    insert = manager.insert
    charge_creation = account.charge_trace_creation if account else None
    if account is not None:
        # Hoisted Table 2 constants: fold prices evictions/promotions
        # with the exact expressions CostModel.eviction/promotion use,
        # accumulated onto the account in the same per-effect order,
        # so float totals match the object path bit for bit.
        model = account.model
        ev_per, ev_base = model.eviction_per_byte, model.eviction_base
        pr_per, pr_base = model.promotion_per_byte, model.promotion_base

    # One prototype entry per managed cache, resolved once.  A *plain*
    # cache (hits are exactly a trace-record touch) carries the cache
    # object so folding an insertion can capture the live CachedTrace;
    # the loop then mutates that record in place — no call at all.
    # Anything else carries a bound hit handler, and its prototype
    # doubles as the (shared, immutable) resident entry.
    plain_names = manager.plain_hit_caches()
    entries: dict[str, tuple] = {}
    for cache in manager.caches():
        if cache.name in plain_names:
            entries[cache.name] = (cache.name, None, cache)
        else:
            entries[cache.name] = (cache.name, manager.hit_handler(cache.name), None)

    # trace_id -> (size, module_id) of every trace ever created.
    known: dict[int, tuple[int, int]] = {}
    # trace_id -> (cache name, handler | None, CachedTrace | None),
    # maintained purely from the effect stream.
    resident: dict[int, tuple] = {}
    pending_pins: set[int] = set()

    hits = misses = creations = 0
    evictions = unmap_evictions = flush_evictions = 0
    evicted_bytes = promotions = promoted_bytes = 0
    hits_by_cache: dict[str, int] = {}

    def fold(effects) -> None:
        """Residency + counter update + effect pricing, in the same
        per-effect order as ``CacheSimulator._absorb`` followed by
        ``OverheadAccount.charge_effects``."""
        nonlocal evictions, unmap_evictions, flush_evictions
        nonlocal evicted_bytes, promotions, promoted_bytes
        for effect in effects:
            kind = type(effect)
            if kind is Inserted:
                proto = entries[effect.cache]
                cache = proto[2]
                if cache is None:
                    resident[effect.trace_id] = proto
                else:
                    # find, not get: the cascade may already have
                    # evicted this trace again — a later Evicted
                    # effect in this batch then pops the entry, and
                    # no access can land in between.
                    trace = cache.find(effect.trace_id)
                    resident[effect.trace_id] = (proto[0], None, trace)
            elif kind is Evicted:
                resident.pop(effect.trace_id, None)
                reason = effect.reason
                if reason is EvictionReason.UNMAP:
                    unmap_evictions += 1
                elif reason is EvictionReason.FLUSH:
                    flush_evictions += 1
                else:
                    evictions += 1
                evicted_bytes += effect.size
                if account is not None:
                    account.evictions += ev_per * effect.size + ev_base
            else:  # Promoted
                proto = entries[effect.dst]
                cache = proto[2]
                if cache is None:
                    resident[effect.trace_id] = proto
                else:
                    trace = cache.find(effect.trace_id)
                    resident[effect.trace_id] = (proto[0], None, trace)
                promotions += 1
                promoted_bytes += effect.size
                if account is not None:
                    account.promotions += pr_per * effect.size + pr_base

    resident_get = resident.get
    known_get = known.get

    # .tolist() converts the packed columns to plain ints once;
    # array.__getitem__ would re-box every element on every read.
    # zip re-packs them into per-record tuples, which unpack faster in
    # the loop than six list subscripts.
    n = len(compiled.op)
    records = zip(
        compiled.op.tolist(),
        compiled.time.tolist(),
        compiled.trace_id.tolist(),
        compiled.size.tolist(),
        compiled.module.tolist(),
        compiled.repeat.tolist(),
    )
    for op, time, trace_id, size, module_id, repeat in records:
        if op == OP_ACCESS:
            entry = resident_get(trace_id)
            if entry is not None:
                # Hot path: a resident access.
                cache_name, handler, trace = entry
                if trace is not None:
                    # Plain hit: mutate the trace record in place.
                    trace.access_count += repeat
                    trace.last_access = time
                else:
                    effects = handler(trace_id, time, repeat)
                    if effects:
                        fold(effects)
                hits += repeat
                if cache_name in hits_by_cache:
                    hits_by_cache[cache_name] += repeat
                else:
                    hits_by_cache[cache_name] = repeat
            else:
                info = known_get(trace_id)
                if info is None:
                    raise LogFormatError(
                        f"access to trace {trace_id} before its creation"
                    )
                # Conflict miss: regenerate and re-insert, then the
                # remaining repeats hit the fresh copy.
                size, module_id = info
                misses += 1
                if charge_creation:
                    charge_creation(size)
                fold(insert(trace_id, size, module_id, time))
                if trace_id in pending_pins:
                    manager.pin(trace_id)
                remaining = repeat - 1
                if remaining > 0:
                    entry = resident_get(trace_id)
                    if entry is None:
                        # Uncacheable trace: every entry regenerates
                        # from the basic-block cache.
                        misses += remaining
                        if charge_creation:
                            for _ in range(remaining):
                                charge_creation(size)
                    else:
                        cache_name, handler, trace = entry
                        if trace is not None:
                            trace.access_count += remaining
                            trace.last_access = time
                        else:
                            effects = handler(trace_id, time, remaining)
                            if effects:
                                fold(effects)
                        hits += remaining
                        if cache_name in hits_by_cache:
                            hits_by_cache[cache_name] += remaining
                        else:
                            hits_by_cache[cache_name] = remaining
        elif op == OP_CREATE:
            known[trace_id] = (size, module_id)
            creations += 1
            if charge_creation:
                charge_creation(size)
            fold(insert(trace_id, size, module_id, time))
        elif op == OP_UNMAP:
            fold(manager.unmap_module(module_id, time))
            # The unmapped code can never be re-entered under these ids.
            if pending_pins:
                for dead_id, (_, mod) in known.items():
                    if mod == module_id:
                        pending_pins.discard(dead_id)
        elif op == OP_PIN:
            if trace_id in resident:
                manager.pin(trace_id)
            else:
                pending_pins.add(trace_id)
        elif op == OP_UNPIN:
            pending_pins.discard(trace_id)
            if trace_id in resident:
                manager.unpin(trace_id)
        else:  # OP_END
            break

    # Every access entry lands in exactly one of hits/misses, so the
    # loop skips the per-record access counter.
    stats.accesses += hits + misses
    stats.hits += hits
    stats.misses += misses
    stats.creations += creations
    stats.evictions += evictions
    stats.unmap_evictions += unmap_evictions
    stats.flush_evictions += flush_evictions
    stats.promotions += promotions
    stats.evicted_bytes += evicted_bytes
    stats.promoted_bytes += promoted_bytes
    for cache_name, count in hits_by_cache.items():
        stats.hits_by_cache[cache_name] = (
            stats.hits_by_cache.get(cache_name, 0) + count
        )

    FASTPATH_TOTALS["fast_replays"] += 1
    FASTPATH_TOTALS["records_replayed"] += n
