"""Replay-tier selection in :meth:`CacheSimulator.run`.

There is one compiled tier, the batched loop; the object path is the
reference behind ``REPRO_FASTPATH=0`` / :func:`disable_fastpath`.  The
switch must route every replay to exactly one of the two.
"""

from __future__ import annotations

from repro.cachesim.simulator import CacheSimulator
from repro.core.unified import UnifiedCacheManager
from repro.fastpath import (
    FASTPATH_TOTALS,
    compile_log,
    disable_fastpath,
    enable_fastpath,
    fastpath_enabled,
)
from repro.tracelog.records import EndOfLog, TraceAccess, TraceCreate, TraceLog


def _runs_log() -> TraceLog:
    log = TraceLog(benchmark="runs", duration_seconds=1.0, code_footprint=4096)
    t = 0
    for tid in range(4):
        t += 1
        log.append(TraceCreate(time=t, trace_id=tid, size=100 + tid, module_id=0))
    for k in range(12):
        t += 1
        log.append(TraceAccess(time=t, trace_id=k % 4, repeat=1 + k % 3))
    log.append(EndOfLog(time=t + 1))
    return log


def _delta(before: dict[str, int]) -> dict[str, int]:
    return {key: FASTPATH_TOTALS[key] - before[key] for key in before}


def test_mode_switch_selects_tier():
    log = _runs_log()
    compiled = compile_log(log)
    was = fastpath_enabled()
    try:
        for mode, switch, key, other in (
            ("batched", enable_fastpath, "fast_replays", "object_replays"),
            ("off", disable_fastpath, "object_replays", "fast_replays"),
        ):
            switch()
            for replay_log in (compiled, log):
                before = dict(FASTPATH_TOTALS)
                CacheSimulator(UnifiedCacheManager(4096)).run(replay_log)
                delta = _delta(before)
                assert delta[key] == 1, mode
                assert delta[other] == 0, mode
    finally:
        (enable_fastpath if was else disable_fastpath)()
