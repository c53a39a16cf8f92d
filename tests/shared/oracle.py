"""The per-record multi-process reference engine (test oracle).

Production replays every shared-cache cell through
:class:`repro.shared.fleet.FleetSimulator`.  This module keeps the
straightforward engine the fleet engine was derived from, so its
schedules and results can be checked against an independent
implementation:

* :func:`interleave_logs` merges N per-process logs into one scheduled
  stream, yielding one :class:`ScheduledRecord` per log record with its
  monotone global virtual time;
* :class:`MultiProcessSimulator` replays that stream record by record
  against one :class:`~repro.shared.manager.SharedCacheGroup`, with
  eager per-process logs and per-process created-trace tables;
* :func:`reference_cell` computes one shared-experiment cell on this
  engine, for comparison with
  :func:`repro.experiments.shared.simulate_mix`.

Without churn the two engines must agree exactly: the same schedule
(same alive-list round-robin, same ``sim.interleave`` substream, one
draw per turn) and the same
:class:`~repro.shared.fleet.SharedSimulationResult`, field for field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.cachesim.stats import CacheStats
from repro.core.config import GenerationalConfig
from repro.core.effects import Effect, Evicted, EvictionReason, Promoted
from repro.errors import ConfigError, LogFormatError
from repro.experiments.evaluation import baseline_capacity
from repro.experiments.shared import mix_benchmarks
from repro.rand import substream
from repro.shared.compose import ProcessWorkload, build_process_workloads
from repro.shared.fleet import (
    DEFAULT_QUANTUM,
    SCHEDULES,
    ProcessSummary,
    SharedSimulationResult,
)
from repro.shared.identity import TraceInterner
from repro.shared.manager import SharedCacheGroup, make_group
from repro.shared.policy import sharing_config_for
from repro.tracelog.records import (
    EndOfLog,
    LogRecord,
    ModuleUnmap,
    TraceAccess,
    TraceCreate,
    TraceLog,
    TracePin,
    TraceUnpin,
)


@dataclass(frozen=True)
class ScheduledRecord:
    """One log record attributed to its process under a schedule.

    Attributes:
        process: Index of the process the record belongs to.
        record: The original log record (untouched).
        global_time: Monotone interleaved virtual time at which the
            record executes.
    """

    process: int
    record: LogRecord
    global_time: int


def interleave_logs(
    logs: Sequence[TraceLog],
    schedule: str = "round-robin",
    seed: int = 0,
    quantum: int = DEFAULT_QUANTUM,
) -> Iterator[ScheduledRecord]:
    """Merge N logs into one deterministic scheduled stream.

    Every record of every log appears exactly once, in per-process
    order; only the interleaving between processes varies with
    *schedule*.

    Args:
        logs: One log per process (index = process id).
        schedule: One of :data:`repro.shared.fleet.SCHEDULES`.
        seed: Substream seed for the ``random`` schedule.
        quantum: Records consumed per turn before rescheduling.

    Raises:
        ConfigError: for an unknown schedule, an empty log list, or a
            non-positive quantum.
    """
    if schedule not in SCHEDULES:
        raise ConfigError(
            f"unknown schedule {schedule!r}; choose from {', '.join(SCHEDULES)}"
        )
    if not logs:
        raise ConfigError("interleaving needs at least one log")
    if quantum < 1:
        raise ConfigError(f"quantum must be >= 1, got {quantum}")
    positions = [0] * len(logs)
    last_time = [0] * len(logs)
    global_time = 0
    remaining = [len(log.records) for log in logs]
    rng = substream(seed, "sim.interleave") if schedule == "random" else None

    # The alive list is maintained incrementally: a process is removed
    # the moment its log drains, so each scheduling turn costs O(1)
    # amortized instead of an O(P) rescan.  Removal keeps the list in
    # process order, which preserves the original schedule exactly
    # (round-robin indexes `alive[turn % len(alive)]`, and the random
    # draw consumes one rng value per turn either way).
    alive = [idx for idx, left in enumerate(remaining) if left > 0]
    turn = 0
    while alive:
        if rng is not None:
            slot = rng.randrange(len(alive))
        else:
            slot = turn % len(alive)
            turn += 1
        process = alive[slot]
        log = logs[process]
        for _ in range(min(quantum, remaining[process])):
            record = log.records[positions[process]]
            positions[process] += 1
            remaining[process] -= 1
            delta = max(0, record.time - last_time[process])
            last_time[process] = record.time
            global_time += delta
            yield ScheduledRecord(
                process=process, record=record, global_time=global_time
            )
        if not remaining[process]:
            del alive[slot]


@dataclass
class _TraceInfo:
    """Per-process view of a created trace."""

    gid: int
    size: int
    module_id: int


class MultiProcessSimulator:
    """Replays N workloads against one cache group."""

    def __init__(
        self,
        group: SharedCacheGroup,
        workloads: list[ProcessWorkload],
        schedule: str = "round-robin",
        seed: int = 0,
        quantum: int = DEFAULT_QUANTUM,
    ) -> None:
        if len(workloads) != group.n_processes:
            raise ConfigError(
                f"group has {group.n_processes} processes but "
                f"{len(workloads)} workloads were given"
            )
        self.group = group
        self.workloads = workloads
        self.schedule = schedule
        self.seed = seed
        self.quantum = quantum
        self.interner = TraceInterner()
        n = len(workloads)
        self._known: list[dict[int, _TraceInfo]] = [{} for _ in range(n)]
        self._pending_pins: list[set[int]] = [set() for _ in range(n)]
        self._summaries = [
            ProcessSummary(process=i, name=w.name, stats=CacheStats())
            for i, w in enumerate(workloads)
        ]

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def run(self) -> SharedSimulationResult:
        """Replay every workload to completion and check invariants."""
        stream = interleave_logs(
            [w.log for w in self.workloads],
            schedule=self.schedule,
            seed=self.seed,
            quantum=self.quantum,
        )
        for scheduled in stream:
            record = scheduled.record
            process = scheduled.process
            time = scheduled.global_time
            if isinstance(record, TraceCreate):
                self._on_create(process, record, time)
            elif isinstance(record, TraceAccess):
                self._on_access(process, record, time)
            elif isinstance(record, ModuleUnmap):
                self._on_unmap(process, record, time)
            elif isinstance(record, TracePin):
                self._on_pin(process, record)
            elif isinstance(record, TraceUnpin):
                self._on_unpin(process, record)
            elif isinstance(record, EndOfLog):
                pass
            else:  # pragma: no cover - records are a closed set
                raise LogFormatError(f"unhandled record type {type(record).__name__}")
        self.group.check_invariants()
        result = SharedSimulationResult(
            group_name=self.group.name,
            schedule=self.schedule,
            seed=self.seed,
            quantum=self.quantum,
            total_capacity=self.group.total_capacity,
            processes=self._summaries,
            resident_bytes=self.group.resident_bytes(),
            duplicated_bytes=self.group.duplicated_bytes(self.interner.size_of),
            unique_content_bytes=self.interner.unique_bytes,
        )
        for summary in self._summaries:
            summary.stats.check_invariants()
        return result

    # ------------------------------------------------------------------
    # Record handlers
    # ------------------------------------------------------------------

    def _on_create(self, process: int, record: TraceCreate, time: int) -> None:
        workload = self.workloads[process]
        key = workload.keys.get(record.trace_id)
        if key is None:
            raise LogFormatError(
                f"process {process} created trace {record.trace_id} with "
                f"no content key"
            )
        gid, _ = self.interner.intern(key, record.size)
        info = _TraceInfo(gid=gid, size=record.size, module_id=record.module_id)
        self._known[process][record.trace_id] = info
        summary = self._summaries[process]
        summary.stats.creations += 1
        self._generate(process, info, time)
        self._apply_pending_pin(process, record.trace_id, info)

    def _on_access(self, process: int, record: TraceAccess, time: int) -> None:
        info = self._known[process].get(record.trace_id)
        if info is None:
            raise LogFormatError(
                f"process {process} accessed unknown trace {record.trace_id}"
            )
        summary = self._summaries[process]
        summary.stats.accesses += record.repeat
        cache = self.group.lookup(process, info.gid)
        if cache is None:
            # Conflict miss: the trace was evicted and must be
            # regenerated (possibly deduplicated against a shared copy)
            # before execution resumes.
            summary.stats.misses += 1
            self._generate(process, info, time)
            self._apply_pending_pin(process, record.trace_id, info)
            remaining = record.repeat - 1
            if remaining:
                if self.group.lookup(process, info.gid) is None:
                    # Uncacheable trace: every entry misses.
                    summary.stats.misses += remaining
                else:
                    outcome = self.group.on_hit(
                        process, info.gid, time, remaining, info.module_id
                    )
                    summary.stats.record_hit(outcome.cache, remaining)
                    self._absorb(process, outcome.effects)
        else:
            outcome = self.group.on_hit(
                process, info.gid, time, record.repeat, info.module_id
            )
            summary.stats.record_hit(outcome.cache, record.repeat)
            self._absorb(process, outcome.effects)

    def _on_unmap(self, process: int, record: ModuleUnmap, time: int) -> None:
        effects = self.group.unmap_module(process, record.module_id, time)
        self._absorb(process, effects)
        dead = {
            trace_id
            for trace_id, info in self._known[process].items()
            if info.module_id == record.module_id
        }
        self._pending_pins[process] -= dead

    def _on_pin(self, process: int, record: TracePin) -> None:
        info = self._known[process].get(record.trace_id)
        if info is None:
            raise LogFormatError(
                f"process {process} pinned unknown trace {record.trace_id}"
            )
        if not self.group.pin(process, info.gid):
            self._pending_pins[process].add(record.trace_id)

    def _on_unpin(self, process: int, record: TraceUnpin) -> None:
        self._pending_pins[process].discard(record.trace_id)
        info = self._known[process].get(record.trace_id)
        if info is not None:
            self.group.unpin(process, info.gid)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _generate(self, process: int, info: _TraceInfo, time: int) -> None:
        """(Re)generate *info*'s code, counting dedup against shared
        copies, and absorb the placement effects."""
        summary = self._summaries[process]
        outcome = self.group.insert(
            process, info.gid, info.size, info.module_id, time
        )
        if outcome.deduped:
            summary.dedup_generations += 1
            summary.dedup_bytes += info.size
        else:
            summary.generated_bytes += info.size
        self._absorb(process, outcome.effects)

    def _apply_pending_pin(
        self, process: int, trace_id: int, info: _TraceInfo
    ) -> None:
        if trace_id in self._pending_pins[process]:
            if self.group.pin(process, info.gid):
                self._pending_pins[process].discard(trace_id)

    def _absorb(self, process: int, effects: list[Effect]) -> None:
        """Fold an effect list into the acting process's statistics."""
        stats = self._summaries[process].stats
        for effect in effects:
            if isinstance(effect, Evicted):
                if effect.reason is EvictionReason.UNMAP:
                    stats.unmap_evictions += 1
                elif effect.reason is EvictionReason.FLUSH:
                    stats.flush_evictions += 1
                else:
                    stats.evictions += 1
                stats.evicted_bytes += effect.size
            elif isinstance(effect, Promoted):
                stats.promotions += 1
                stats.promoted_bytes += effect.size


def reference_cell(
    mix: str,
    processes: int,
    policy: str,
    seed: int = 42,
    scale_multiplier: float = 1.0,
    schedule: str = "round-robin",
    quantum: int = DEFAULT_QUANTUM,
) -> dict[str, object]:
    """One (mix, process count, policy) cell of the shared table,
    replayed on the oracle engine; the same dict
    :func:`repro.experiments.shared.simulate_mix` returns."""
    workloads = build_process_workloads(
        mix_benchmarks(mix, processes),
        seed=seed,
        scale_multiplier=scale_multiplier,
    )
    capacities = tuple(
        baseline_capacity(w.log.total_trace_bytes) for w in workloads
    )
    group = make_group(
        capacities, GenerationalConfig(), sharing_config_for(policy)
    )
    outcome = MultiProcessSimulator(
        group, workloads, schedule=schedule, seed=seed, quantum=quantum
    ).run()
    return {
        "mix": mix,
        "processes": processes,
        "policy": policy,
        "schedule": schedule,
        "quantum": quantum,
        "seed": seed,
        "total_capacity": outcome.total_capacity,
        "accesses": outcome.accesses,
        "miss_rate": outcome.miss_rate,
        "generated_bytes": outcome.generated_bytes,
        "dedup_generations": outcome.dedup_generations,
        "dedup_bytes": outcome.dedup_bytes,
        "resident_bytes": outcome.resident_bytes,
        "duplicated_bytes": outcome.duplicated_bytes,
        "unique_content_bytes": outcome.unique_content_bytes,
    }
