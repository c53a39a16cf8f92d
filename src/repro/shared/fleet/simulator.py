"""Multi-process replay against one cache group (fleet internals).

:class:`FleetSimulator` is the cross-process analogue of
:class:`repro.cachesim.simulator.CacheSimulator`: it replays N
per-process trace logs, interleaved by a deterministic schedule
(:func:`~repro.shared.fleet.scheduler.stream_segments`), against one
:class:`~repro.shared.manager.SharedCacheGroup`, and owns the
:class:`~repro.shared.identity.TraceInterner` that gives structurally
identical traces from different processes one global identity.

Accounting follows the single-process simulator's conventions —
creations are compulsory (not misses), a conflict miss regenerates and
reinserts, ``repeat`` expands to one maybe-miss plus hits — with one
cross-process addition: a (re)generation that finds its content already
resident in a shared cache is a **deduplicated generation**.  It costs
no code bytes (``dedup_bytes`` instead of ``generated_bytes``), which
is exactly the compilation ShareJIT avoids.

The replay walks scheduler segments over shared compiled columns, not
per-record objects over per-process logs.  Two state choices let it
scale to a thousand processes:

* the created-trace table (trace id → gid/size/module) is kept per
  **distinct workload**, not per process: content-identical processes
  produce identical tables, so sharing one costs nothing on valid
  logs (a log always creates before it accesses) while cutting that
  state from O(P·traces) to O(D·traces).  Interning still happens per
  create *per process*, so gid identity and duplicate accounting are
  the same as with one table per process.
* global virtual time is accumulated incrementally from the time
  column as segments replay — the same per-record deltas, no
  per-record schedule objects.

The test suite keeps the per-record reference simulator as an oracle:
without churn, both produce identical results field for field on
every 2/4/8-process experiment cell.

Churned processes add one behavior: a process killed early (its stream
``limit``) releases its pins and unmaps every module it created into,
so the shared cache's reference counts drain exactly as OS teardown
would drive them.

This module is fleet-internal (``fleet-api`` lint rule): other layers
import the package root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.cachesim.stats import CacheStats
from repro.core.effects import Effect, Evicted, EvictionReason, Promoted
from repro.errors import ConfigError, LogFormatError
from repro.fastpath import OP_ACCESS, OP_CREATE, OP_END, OP_PIN, OP_UNMAP, OP_UNPIN
from repro.shared.fleet.scheduler import (
    DEFAULT_QUANTUM,
    ProcessStream,
    stream_segments,
)
from repro.shared.fleet.workloads import FleetWorkloads
from repro.shared.identity import TraceInterner
from repro.shared.manager import SharedCacheGroup


@dataclass
class ProcessSummary:
    """One process's outcome of a multi-process replay."""

    process: int
    name: str
    stats: CacheStats
    generated_bytes: int = 0
    dedup_generations: int = 0
    dedup_bytes: int = 0


@dataclass
class SharedSimulationResult:
    """Outcome of one multi-process replay."""

    group_name: str
    schedule: str
    seed: int
    quantum: int
    total_capacity: int
    processes: list[ProcessSummary] = field(default_factory=list)
    resident_bytes: int = 0
    duplicated_bytes: int = 0
    unique_content_bytes: int = 0

    @property
    def accesses(self) -> int:
        return sum(p.stats.accesses for p in self.processes)

    @property
    def hits(self) -> int:
        return sum(p.stats.hits for p in self.processes)

    @property
    def misses(self) -> int:
        return sum(p.stats.misses for p in self.processes)

    @property
    def miss_rate(self) -> float:
        """Aggregate conflict-miss rate over all processes."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def generated_bytes(self) -> int:
        """Total bytes of code actually compiled (dedup excluded)."""
        return sum(p.generated_bytes for p in self.processes)

    @property
    def dedup_generations(self) -> int:
        """(Re)generations satisfied by an already-shared copy."""
        return sum(p.dedup_generations for p in self.processes)

    @property
    def dedup_bytes(self) -> int:
        """Compilation bytes avoided through sharing."""
        return sum(p.dedup_bytes for p in self.processes)


class FleetSimulator:
    """Replays a fleet of processes against one cache group."""

    def __init__(
        self,
        group: SharedCacheGroup,
        workloads: FleetWorkloads,
        schedule: str = "round-robin",
        seed: int = 0,
        quantum: int = DEFAULT_QUANTUM,
        streams: Sequence[ProcessStream] | None = None,
    ) -> None:
        """
        Args:
            group: The shared cache group (one slot per process).
            workloads: Distinct workloads plus per-process assignment.
            schedule: Interleaving schedule (one of ``SCHEDULES``).
            seed: Schedule substream seed.
            quantum: Records per scheduling turn.
            streams: Optional churned stream shapes (defaults to every
                process replaying its full log from turn 0).
        """
        n = workloads.n_processes
        if n != group.n_processes:
            raise ConfigError(
                f"group has {group.n_processes} processes but the fleet "
                f"has {n}"
            )
        if streams is None:
            streams = [
                ProcessStream(length=length) for length in workloads.lengths()
            ]
        elif len(streams) != n:
            raise ConfigError(
                f"{len(streams)} streams for {n} fleet processes"
            )
        else:
            for process, stream in enumerate(streams):
                expected = workloads.workload_of(process).n_records
                if stream.length != expected:
                    raise ConfigError(
                        f"process {process} stream length {stream.length} "
                        f"!= its workload's {expected} records"
                    )
        self.group = group
        self.workloads = workloads
        self.schedule = schedule
        self.seed = seed
        self.quantum = quantum
        self.streams = list(streams)
        self.interner = TraceInterner()
        # Created-trace tables per *distinct* workload: trace id ->
        # (gid, size, module_id).
        self._known: list[dict[int, tuple[int, int, int]]] = [
            {} for _ in workloads.distinct
        ]
        # Pin claims, allocated lazily per process: pins are rare, and
        # 2 P empty sets would dominate the simulator's own footprint
        # at fleet scale.
        self._pending_pins: dict[int, set[int]] = {}
        self._held_pins: dict[int, set[int]] = {}
        self._summaries = [
            ProcessSummary(
                process=process,
                name=workloads.workload_of(process).name,
                stats=CacheStats(),
            )
            for process in range(n)
        ]
        self._exited = 0

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def run(self) -> SharedSimulationResult:
        """Replay every stream to completion and check invariants."""
        workloads = self.workloads
        n = workloads.n_processes
        last_time = [0] * n
        consumed = [0] * n
        global_time = 0
        for segment in stream_segments(
            self.streams,
            schedule=self.schedule,
            seed=self.seed,
            quantum=self.quantum,
        ):
            process = segment.process
            distinct_index = workloads.assignment[process]
            workload = workloads.distinct[distinct_index]
            known = self._known[distinct_index]
            op, time, trace_id, size, module, repeat = workload.columns
            last = last_time[process]
            for index in range(segment.start, segment.stop):
                now = time[index]
                delta = now - last
                if delta > 0:
                    global_time += delta
                last = now
                code = op[index]
                if code == OP_ACCESS:
                    self._on_access(
                        process,
                        known,
                        trace_id[index],
                        repeat[index],
                        global_time,
                    )
                elif code == OP_CREATE:
                    self._on_create(
                        process,
                        workload,
                        known,
                        trace_id[index],
                        size[index],
                        module[index],
                        global_time,
                    )
                elif code == OP_UNMAP:
                    self._on_unmap(
                        process, workload, known, module[index], global_time
                    )
                elif code == OP_PIN:
                    self._on_pin(process, known, trace_id[index])
                elif code == OP_UNPIN:
                    self._on_unpin(process, known, trace_id[index])
                elif code != OP_END:  # pragma: no cover - closed opcode set
                    raise LogFormatError(f"unhandled opcode {code}")
            last_time[process] = last
            consumed[process] += segment.stop - segment.start
            stream = self.streams[process]
            if (
                consumed[process] == stream.effective_length
                and stream.effective_length < workload.n_records
            ):
                self._on_exit(process, workload, known, global_time)
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

    @property
    def exited_early(self) -> int:
        """Processes the churn plan killed before their log drained."""
        return self._exited

    # ------------------------------------------------------------------
    # Record handlers (over packed rows)
    # ------------------------------------------------------------------

    def _on_create(
        self,
        process: int,
        workload,
        known: dict[int, tuple[int, int, int]],
        trace_id: int,
        size: int,
        module_id: int,
        time: int,
    ) -> None:
        key = workload.keys.get(trace_id)
        if key is None:
            raise LogFormatError(
                f"process {process} created trace {trace_id} with no "
                f"content key"
            )
        gid, _ = self.interner.intern(key, size)
        info = (gid, size, module_id)
        known[trace_id] = info
        self._summaries[process].stats.creations += 1
        self._generate(process, info, time)
        self._apply_pending_pin(process, trace_id, info)

    def _on_access(
        self,
        process: int,
        known: dict[int, tuple[int, int, int]],
        trace_id: int,
        repeat: int,
        time: int,
    ) -> None:
        info = known.get(trace_id)
        if info is None:
            raise LogFormatError(
                f"process {process} accessed unknown trace {trace_id}"
            )
        gid, _size, module_id = info
        summary = self._summaries[process]
        summary.stats.accesses += repeat
        cache = self.group.lookup(process, gid)
        if cache is None:
            # Conflict miss: regenerate (possibly deduplicated against
            # a shared copy) before execution resumes.
            summary.stats.misses += 1
            self._generate(process, info, time)
            self._apply_pending_pin(process, trace_id, info)
            remaining = repeat - 1
            if remaining:
                if self.group.lookup(process, gid) is None:
                    # Uncacheable trace: every entry misses.
                    summary.stats.misses += remaining
                else:
                    outcome = self.group.on_hit(
                        process, gid, time, remaining, module_id
                    )
                    summary.stats.record_hit(outcome.cache, remaining)
                    self._absorb(process, outcome.effects)
        else:
            outcome = self.group.on_hit(process, gid, time, repeat, module_id)
            summary.stats.record_hit(outcome.cache, repeat)
            self._absorb(process, outcome.effects)

    def _on_unmap(
        self,
        process: int,
        workload,
        known: dict[int, tuple[int, int, int]],
        module_id: int,
        time: int,
    ) -> None:
        effects = self.group.unmap_module(process, module_id, time)
        self._absorb(process, effects)
        dead = workload.traces_by_module.get(module_id)
        if dead:
            pending = self._pending_pins.get(process)
            if pending:
                pending -= dead
            held = self._held_pins.get(process)
            if held:
                held -= {
                    known[trace_id][0] for trace_id in dead if trace_id in known
                }

    def _on_pin(
        self,
        process: int,
        known: dict[int, tuple[int, int, int]],
        trace_id: int,
    ) -> None:
        info = known.get(trace_id)
        if info is None:
            raise LogFormatError(
                f"process {process} pinned unknown trace {trace_id}"
            )
        if self.group.pin(process, info[0]):
            self._held_pins.setdefault(process, set()).add(info[0])
        else:
            self._pending_pins.setdefault(process, set()).add(trace_id)

    def _on_unpin(
        self,
        process: int,
        known: dict[int, tuple[int, int, int]],
        trace_id: int,
    ) -> None:
        pending = self._pending_pins.get(process)
        if pending:
            pending.discard(trace_id)
        info = known.get(trace_id)
        if info is not None:
            self.group.unpin(process, info[0])
            held = self._held_pins.get(process)
            if held:
                held.discard(info[0])

    def _on_exit(
        self,
        process: int,
        workload,
        known: dict[int, tuple[int, int, int]],
        time: int,
    ) -> None:
        """OS teardown of a churn-killed process: release every pin
        claim, then unmap every module the process created into, so
        shared reference counts drain and local copies evict."""
        self._exited += 1
        for gid in sorted(self._held_pins.pop(process, ())):
            self.group.unpin(process, gid)
        self._pending_pins.pop(process, None)
        for module_id in workload.modules:
            effects = self.group.unmap_module(process, module_id, time)
            self._absorb(process, effects)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _generate(
        self, process: int, info: tuple[int, int, int], time: int
    ) -> None:
        """(Re)generate *info*'s code, counting dedup against shared
        copies, and absorb the placement effects."""
        gid, size, module_id = info
        summary = self._summaries[process]
        outcome = self.group.insert(process, gid, size, module_id, time)
        if outcome.deduped:
            summary.dedup_generations += 1
            summary.dedup_bytes += size
        else:
            summary.generated_bytes += size
        self._absorb(process, outcome.effects)

    def _apply_pending_pin(
        self, process: int, trace_id: int, info: tuple[int, int, int]
    ) -> None:
        pending = self._pending_pins.get(process)
        if pending and trace_id in pending:
            if self.group.pin(process, info[0]):
                pending.discard(trace_id)
                self._held_pins.setdefault(process, set()).add(info[0])

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
