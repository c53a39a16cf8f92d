"""The O(1)-amortized streaming interleaver (fleet internals).

Real processes interleave nondeterministically; the simulator needs the
opposite, a *schedule* that is a pure function of its inputs, so every
table is byte-reproducible.  Two schedules:

* ``round-robin`` — each process runs a fixed quantum of records, in
  process order (the fair, maximally interleaved baseline);
* ``random`` — the next process is drawn from the ``sim.interleave``
  :mod:`repro.rand` substream, one draw per turn (seeded, hence still
  deterministic); models bursty, uneven scheduling.

The scheduler never touches a record.  It works on stream *shapes*:

* it schedules over **stream lengths**, so P content-identical
  processes share one compiled log and differ only in their cursors;
* it yields one :class:`Segment` (a half-open index range) per
  scheduling *turn* rather than one object per *record*, so its own
  cost is O(events / quantum), not O(events);
* the alive set is maintained incrementally (a process is admitted at
  its spawn turn and removed when its stream drains), so each turn is
  O(1) amortized — no per-turn rescan of all P processes.

The replay loop derives each record's *global virtual time* (the sum
of every process's consumed per-process time deltas) as it walks the
segments, which gives the cache group one monotone clock for recency
and temperature decay even though the per-process clocks run
independently.  The test suite keeps a per-record interleaver as the
oracle these semantics are pinned against.

Churn is part of the schedule: a :class:`ProcessStream` may carry a
``spawn_turn`` (the process does not exist before that many scheduling
turns have elapsed) and a ``limit`` (the process is killed after that
many records — the remainder of its stream is never replayed).  Both
are deterministic inputs, so churned schedules stay pure functions of
``(streams, schedule, seed, quantum)``.

This module is fleet-internal (``fleet-api`` lint rule): other layers
import the package root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import ConfigError
from repro.rand import substream

#: Supported schedule names.
SCHEDULES = ("round-robin", "random")

#: Default records consumed per scheduling turn.
DEFAULT_QUANTUM = 32


@dataclass(frozen=True, slots=True)
class ProcessStream:
    """One process's replay stream, described by shape alone.

    Attributes:
        length: Records available in the process's (shared) log.
        spawn_turn: Scheduling turn at which the process appears
            (0 = present from the start).
        limit: Records actually replayed before the process exits
            early (None = runs to completion).
    """

    length: int
    spawn_turn: int = 0
    limit: int | None = None

    @property
    def effective_length(self) -> int:
        """Records this stream will actually contribute."""
        if self.limit is None:
            return self.length
        return min(self.length, self.limit)


@dataclass(frozen=True, slots=True)
class Segment:
    """One scheduling turn: process *process* replays records
    ``[start, stop)`` of its log."""

    process: int
    start: int
    stop: int


def stream_segments(
    streams: Sequence[ProcessStream],
    schedule: str = "round-robin",
    seed: int = 0,
    quantum: int = DEFAULT_QUANTUM,
) -> Iterator[Segment]:
    """Schedule N process streams into one deterministic segment stream.

    Every record index below each stream's effective length appears in
    exactly one yielded segment, in cursor order; only the interleaving
    varies with *schedule*.

    Args:
        streams: One stream shape per process (index = process id).
        schedule: One of :data:`SCHEDULES`.
        seed: Substream seed for the ``random`` schedule.
        quantum: Records consumed per turn before rescheduling.

    Raises:
        ConfigError: for an unknown schedule, no streams, a bad
            quantum, or malformed churn fields.
    """
    if schedule not in SCHEDULES:
        raise ConfigError(
            f"unknown schedule {schedule!r}; choose from {', '.join(SCHEDULES)}"
        )
    if not streams:
        raise ConfigError("scheduling needs at least one process stream")
    if quantum < 1:
        raise ConfigError(f"quantum must be >= 1, got {quantum}")
    for index, stream in enumerate(streams):
        if stream.length < 0:
            raise ConfigError(
                f"process {index} has negative length {stream.length}"
            )
        if stream.spawn_turn < 0:
            raise ConfigError(
                f"process {index} has negative spawn turn {stream.spawn_turn}"
            )
        if stream.limit is not None and stream.limit < 0:
            raise ConfigError(
                f"process {index} has negative limit {stream.limit}"
            )

    cursor = [0] * len(streams)
    remaining = [stream.effective_length for stream in streams]
    rng = substream(seed, "sim.interleave") if schedule == "random" else None

    # Deferred arrivals, most imminent last (so admission pops); the
    # alive list is maintained incrementally from here on — no
    # per-turn rescan.  Removal keeps it in process order, so the
    # round-robin slot `turn % len(alive)` and the random draw's one
    # rng value per turn fix the schedule exactly.
    pending = sorted(
        (
            index
            for index, stream in enumerate(streams)
            if stream.spawn_turn > 0 and remaining[index] > 0
        ),
        key=lambda index: (streams[index].spawn_turn, index),
        reverse=True,
    )
    alive = [
        index
        for index, stream in enumerate(streams)
        if stream.spawn_turn == 0 and remaining[index] > 0
    ]

    turns = 0  # total scheduling turns elapsed (the churn clock)
    rr_turn = 0  # the round-robin counter
    while alive or pending:
        if not alive:
            # Everyone alive drained before the next arrival: fast-
            # forward the churn clock to it.
            turns = max(turns, streams[pending[-1]].spawn_turn)
        while pending and streams[pending[-1]].spawn_turn <= turns:
            alive.append(pending.pop())
        if rng is not None:
            slot = rng.randrange(len(alive))
        else:
            slot = rr_turn % len(alive)
            rr_turn += 1
        process = alive[slot]
        turns += 1
        take = min(quantum, remaining[process])
        start = cursor[process]
        cursor[process] = start + take
        remaining[process] -= take
        yield Segment(process=process, start=start, stop=start + take)
        if not remaining[process]:
            del alive[slot]
