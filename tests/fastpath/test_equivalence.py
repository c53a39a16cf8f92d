"""Object path vs compiled fast path: byte-identical results.

Every policy, both manager families, every generational promotion
config: the batched loop over the compiled log must agree with the
object path on the full :class:`~repro.cachesim.stats.SimulationResult`,
including the float-accumulated overhead instruction totals (``==``,
not isclose: the fast path charges effects in the same order, so the
floats match bit for bit).
"""

from __future__ import annotations

import pytest

from repro.cachesim.simulator import CacheSimulator
from repro.core.config import FIGURE9_CONFIGS, GenerationalConfig, PromotionMode
from repro.core.generational import GenerationalCacheManager
from repro.core.unified import UnifiedCacheManager
from repro.fastpath import (
    FASTPATH_TOTALS,
    compile_log,
    disable_fastpath,
    enable_fastpath,
    fastpath_enabled,
    object_path,
)
from repro.overhead.model import TABLE2_COSTS
from repro.policies import POLICIES
from repro.tracelog.records import (
    EndOfLog,
    ModuleUnmap,
    TraceAccess,
    TraceCreate,
    TraceLog,
    TracePin,
    TraceUnpin,
)
from repro.workloads.catalog import get_profile
from repro.workloads.synthesis import synthesize_log

GENERATIONAL_CONFIGS = FIGURE9_CONFIGS + (
    GenerationalConfig(
        promotion_mode=PromotionMode.ON_HIT, promotion_threshold=5
    ),
    GenerationalConfig(
        nursery_fraction=0.2,
        probation_fraction=0.4,
        persistent_fraction=0.4,
        promotion_mode=PromotionMode.ON_EVICTION,
        promotion_threshold=25,
    ),
    GenerationalConfig(
        promotion_mode=PromotionMode.ON_HIT,
        promotion_threshold=2,
        local_policy="lru",
    ),
)

#: word exercises unmaps and pins; gzip is a pure SPEC loop shape.
#: scale is a trace-count divisor; these keep each log around a few
#: thousand records so the ~30-case cross product stays fast — the
#: benchmarks cover evaluation-scale logs.
LOGS = {
    "gzip": synthesize_log(get_profile("gzip"), seed=9, scale=8.0),
    "word": synthesize_log(get_profile("word"), seed=9, scale=64.0),
}


def assert_equivalent(log, make_manager, cost_model=TABLE2_COSTS):
    """Replay *log* on the object path and the compiled log through
    the batched loop; the two results must agree field for field."""
    compiled = compile_log(log)
    with object_path():
        reference = CacheSimulator(make_manager(), cost_model).run(log)
    before = FASTPATH_TOTALS["fast_replays"]
    outcome = CacheSimulator(make_manager(), cost_model).run(compiled)
    assert FASTPATH_TOTALS["fast_replays"] == before + 1, (
        "compiled replay did not take the fast path"
    )
    assert outcome.stats == reference.stats
    assert outcome.overhead_instructions == reference.overhead_instructions
    assert outcome.final_fragmentation == reference.final_fragmentation
    assert outcome.final_occupancy == reference.final_occupancy
    assert outcome.benchmark == reference.benchmark
    assert outcome.manager_name == reference.manager_name
    return outcome


def _capacity(log, fraction=0.5):
    return max(4096, int(log.total_trace_bytes * fraction))


def _runs_log() -> TraceLog:
    """Two access runs separated by an unmap, over a handful of
    traces: long stretches of back-to-back hits."""
    log = TraceLog(benchmark="runs", duration_seconds=1.0, code_footprint=4096)
    t = 0
    for tid in range(4):
        t += 1
        log.append(
            TraceCreate(time=t, trace_id=tid, size=100 + tid, module_id=tid % 2)
        )
    for k in range(20):
        t += 1
        log.append(TraceAccess(time=t, trace_id=k % 4, repeat=1 + k % 3))
    t += 1
    log.append(ModuleUnmap(time=t, module_id=1))
    for k in range(6):
        t += 1
        log.append(TraceAccess(time=t, trace_id=2 * (k % 2), repeat=1))
    log.append(EndOfLog(time=t + 1))
    return log


def _storm_log() -> TraceLog:
    """Unmap storm: every round unmaps a module out from under the hot
    working set, so the next round re-creates its traces through
    conflict misses.  Pins ride along."""
    log = TraceLog(benchmark="storm", duration_seconds=1.0, code_footprint=8192)
    t = 0
    next_id = 0
    live: list[int] = []
    for round_no in range(6):
        created = []
        for _ in range(4):
            t += 1
            log.append(
                TraceCreate(
                    time=t,
                    trace_id=next_id,
                    size=64 + 8 * (next_id % 5),
                    module_id=next_id % 4,
                )
            )
            created.append(next_id)
            next_id += 1
        live = (live + created)[-10:]
        t += 1
        log.append(TracePin(time=t, trace_id=created[0]))
        for _ in range(3):
            for tid in live:
                t += 1
                log.append(
                    TraceAccess(time=t, trace_id=tid, repeat=1 + tid % 3)
                )
        t += 1
        log.append(TraceUnpin(time=t, trace_id=created[0]))
        t += 1
        log.append(ModuleUnmap(time=t, module_id=round_no % 4))
    log.append(EndOfLog(time=t + 1))
    return log


@pytest.mark.parametrize("bench", sorted(LOGS))
@pytest.mark.parametrize(
    "policy", sorted(set(POLICIES) - {"oracle"})
)
def test_unified_policies_equivalent(bench, policy):
    log = LOGS[bench]
    # The unbounded policy never evicts, so it needs room for every
    # trace ever created; the bounded policies run starved at 50%.
    fraction = 2.0 if policy == "unbounded" else 0.5
    assert_equivalent(
        log,
        lambda: UnifiedCacheManager(
            _capacity(log, fraction), local_policy=policy
        ),
    )


@pytest.mark.parametrize("bench", sorted(LOGS))
def test_unified_oracle_equivalent(bench):
    from repro.experiments.headroom import oracle_manager

    log = LOGS[bench]
    assert_equivalent(log, lambda: oracle_manager(log, _capacity(log)))


@pytest.mark.parametrize("bench", sorted(LOGS))
@pytest.mark.parametrize(
    "config", GENERATIONAL_CONFIGS, ids=lambda c: c.label()
)
def test_generational_configs_equivalent(bench, config):
    log = LOGS[bench]
    assert_equivalent(
        log, lambda: GenerationalCacheManager(_capacity(log), config)
    )


@pytest.mark.parametrize("bench", sorted(LOGS))
def test_tight_capacity_equivalent(bench):
    """A starved cache maximizes eviction/promotion churn."""
    log = LOGS[bench]
    assert_equivalent(log, lambda: UnifiedCacheManager(_capacity(log, 0.1)))
    assert_equivalent(
        log,
        lambda: GenerationalCacheManager(_capacity(log, 0.1), FIGURE9_CONFIGS[0]),
    )


def test_runs_log_equivalent():
    """Every access hits when capacity holds everything."""
    log = _runs_log()
    outcome = assert_equivalent(
        log, lambda: UnifiedCacheManager(_capacity(log, 4.0))
    )
    assert outcome.stats.misses == 0


@pytest.mark.parametrize("manager_kind", ["unified", "generational"])
def test_unmap_storm_equivalent(manager_kind):
    """Unmaps mid-working-set, pins on traces that are not resident:
    the effect-stream residency map must track every removal."""
    log = _storm_log()
    if manager_kind == "unified":
        make = lambda: UnifiedCacheManager(_capacity(log, 2.0))
    else:
        make = lambda: GenerationalCacheManager(
            _capacity(log, 2.0), FIGURE9_CONFIGS[0]
        )
    outcome = assert_equivalent(log, make)
    assert outcome.stats.unmap_evictions > 0


def test_storm_tight_capacity_equivalent():
    """A starved cache misses inside nearly every round."""
    log = _storm_log()
    outcome = assert_equivalent(
        log, lambda: UnifiedCacheManager(max(1024, _capacity(log, 0.2)))
    )
    assert outcome.stats.misses > 0


def test_replay_stops_at_end_of_log():
    """Records after EndOfLog are never replayed: an access to a trace
    that was never created would otherwise raise."""
    log = _runs_log()
    log.records.append(TraceAccess(time=10_000, trace_id=999))
    outcome = assert_equivalent(
        log, lambda: UnifiedCacheManager(_capacity(log, 4.0))
    )
    assert outcome.stats.accesses == sum(
        record.repeat
        for record in log.records[:-1]
        if isinstance(record, TraceAccess)
    )


@pytest.mark.parametrize("policy", ["pseudo-circular", "lfu"])
def test_trace_counters_match_object_path(policy):
    """The batched loop keeps every resident trace's access counter
    exact, whether or not the local policy reads it."""
    log = _runs_log()

    def final_counts(replay_log):
        manager = UnifiedCacheManager(_capacity(log, 4.0), local_policy=policy)
        CacheSimulator(manager, TABLE2_COSTS).run(replay_log)
        return {
            trace.trace_id: (trace.access_count, trace.last_access)
            for trace in manager.cache.traces()
        }

    with object_path():
        reference = final_counts(log)
    assert final_counts(compile_log(log)) == reference
    assert any(count for count, _ in reference.values())


def test_no_cost_model_equivalent():
    log = LOGS["word"]
    assert_equivalent(
        log,
        lambda: GenerationalCacheManager(_capacity(log), FIGURE9_CONFIGS[1]),
        cost_model=None,
    )


def test_sanitizer_forces_object_path():
    from repro.analysis.sanitizer import SanitizerHarness

    log = LOGS["gzip"]
    compiled = compile_log(log)
    manager = UnifiedCacheManager(_capacity(log))
    sim = CacheSimulator(
        manager, TABLE2_COSTS, sanitizer=SanitizerHarness(manager, stride=64)
    )
    before = dict(FASTPATH_TOTALS)
    sanitized = sim.run(compiled)
    assert FASTPATH_TOTALS["fast_replays"] == before["fast_replays"]
    assert FASTPATH_TOTALS["object_replays"] == before["object_replays"] + 1
    with object_path():
        reference = CacheSimulator(
            UnifiedCacheManager(_capacity(log)), TABLE2_COSTS
        ).run(log)
    assert sanitized.stats == reference.stats


def test_disable_fastpath_switch():
    log = LOGS["gzip"]
    compiled = compile_log(log)
    assert fastpath_enabled()
    before = dict(FASTPATH_TOTALS)
    CacheSimulator(UnifiedCacheManager(_capacity(log))).run(compiled)
    assert FASTPATH_TOTALS["fast_replays"] == before["fast_replays"] + 1
    assert FASTPATH_TOTALS["object_replays"] == before["object_replays"]
    disable_fastpath()
    try:
        assert not fastpath_enabled()
        before = FASTPATH_TOTALS["object_replays"]
        CacheSimulator(UnifiedCacheManager(_capacity(log))).run(compiled)
        assert FASTPATH_TOTALS["object_replays"] == before + 1
    finally:
        enable_fastpath()


def test_object_path_context_restores():
    with object_path():
        assert not fastpath_enabled()
        with object_path():
            assert not fastpath_enabled()
        # Inner exit must not prematurely re-enable.
        assert not fastpath_enabled()
    assert fastpath_enabled()


@pytest.mark.parametrize(
    "value, enabled",
    [(None, True), ("1", True), ("batched", True), ("0", False), ("OFF", False)],
)
def test_env_switch_is_on_off(value, enabled):
    from repro.fastpath.replay import _enabled_from_env

    assert _enabled_from_env(value) is enabled
