"""Deterministic multi-process log interleaving (the per-record oracle).

The golden digests here freeze the schedule semantics every
multi-process table depends on; the fleet scheduler's tests check
that the production interleaver reproduces the same streams.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import ConfigError
from repro.shared.fleet import DEFAULT_QUANTUM, SCHEDULES
from repro.tracelog.records import EndOfLog, TraceAccess, TraceCreate, TraceLog
from tests.shared.oracle import interleave_logs


def _log(name: str, n_records: int, stride: int = 10) -> TraceLog:
    log = TraceLog(benchmark=name, duration_seconds=1.0, code_footprint=1000)
    log.append(TraceCreate(time=0, trace_id=0, size=50, module_id=0))
    for i in range(1, n_records):
        log.append(TraceAccess(time=i * stride, trace_id=0))
    log.append(EndOfLog(time=n_records * stride))
    return log


def golden_logs() -> list[TraceLog]:
    """The fixed four-process mix the schedule digests are pinned on
    (also replayed by the fleet interleaver's compatibility tests)."""
    return [
        _log("a", 37, stride=7),
        _log("b", 11, stride=13),
        _log("c", 53, stride=5),
        _log("d", 23, stride=11),
    ]


#: sha256 over the "process:global_time;" stream of
#: ``interleave_logs(golden_logs(), schedule, seed=9, quantum=5)``.
#: These freeze the schedule semantics: any reordering — however
#: plausible — changes every multi-process table, so it must show up
#: here first.  The fleet interleaver must reproduce the same stream.
GOLDEN_SCHEDULE_DIGESTS = {
    "round-robin": (
        "aa41c643f05b62b5aac3903afcb8f57cf73b073ee9b2aa9d4779cc8e0ac38aa0"
    ),
    "random": (
        "0d672240395be74fa6687dd35d34dc67929e94c262769cbe1180d607412a8dfd"
    ),
}


def schedule_digest(stream) -> str:
    """Digest of a (process, global_time) schedule stream."""
    digest = hashlib.sha256()
    for process, global_time in stream:
        digest.update(f"{process}:{global_time};".encode())
    return digest.hexdigest()


class TestGoldenSchedule:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_schedule_semantics_are_frozen(self, schedule):
        stream = (
            (s.process, s.global_time)
            for s in interleave_logs(
                golden_logs(), schedule=schedule, seed=9, quantum=5
            )
        )
        assert schedule_digest(stream) == GOLDEN_SCHEDULE_DIGESTS[schedule]


class TestCompleteness:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_every_record_appears_exactly_once(self, schedule):
        logs = [_log("a", 13), _log("b", 5), _log("c", 29)]
        scheduled = list(interleave_logs(logs, schedule=schedule, seed=3))
        assert len(scheduled) == sum(len(log.records) for log in logs)
        for process, log in enumerate(logs):
            mine = [s.record for s in scheduled if s.process == process]
            assert mine == log.records  # per-process order preserved

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_global_time_is_monotone(self, schedule):
        logs = [_log("a", 20, stride=7), _log("b", 20, stride=13)]
        times = [
            s.global_time
            for s in interleave_logs(logs, schedule=schedule, seed=5)
        ]
        assert times == sorted(times)

    def test_single_log_passthrough(self):
        log = _log("solo", 8)
        scheduled = list(interleave_logs([log]))
        assert [s.record for s in scheduled] == log.records
        assert all(s.process == 0 for s in scheduled)
        # One process: global time equals the log's own clock.
        assert scheduled[-1].global_time == log.records[-1].time


class TestDeterminism:
    def test_round_robin_alternates_by_quantum(self):
        logs = [_log("a", 10), _log("b", 10)]
        scheduled = list(interleave_logs(logs, quantum=3))
        assert [s.process for s in scheduled[:6]] == [0, 0, 0, 1, 1, 1]

    def test_random_schedule_is_seed_reproducible(self):
        logs = [_log("a", 30), _log("b", 30), _log("c", 30)]

        def order(seed):
            return [
                s.process
                for s in interleave_logs(
                    logs, schedule="random", seed=seed, quantum=4
                )
            ]

        assert order(1) == order(1)
        assert order(1) != order(2)  # seed actually matters

    def test_exhausted_logs_drop_out(self):
        logs = [_log("short", 2), _log("long", 40)]
        tail = list(interleave_logs(logs, quantum=4))[-20:]
        assert all(s.process == 1 for s in tail)


class TestValidation:
    def test_unknown_schedule(self):
        with pytest.raises(ConfigError, match="schedule"):
            next(interleave_logs([_log("a", 3)], schedule="fifo"))

    def test_empty_log_list(self):
        with pytest.raises(ConfigError, match="at least one"):
            next(interleave_logs([]))

    def test_non_positive_quantum(self):
        with pytest.raises(ConfigError, match="quantum"):
            next(interleave_logs([_log("a", 3)], quantum=0))

    def test_default_quantum_is_positive(self):
        assert DEFAULT_QUANTUM >= 1
