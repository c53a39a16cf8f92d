"""Property-based tests for the fleet streaming scheduler."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shared.fleet import ProcessStream, stream_segments
from tests.shared.oracle import interleave_logs
from tests.sim.test_interleave import _log


@st.composite
def fleets(draw, with_churn=True):
    """A list of stream shapes plus scheduling knobs."""
    n = draw(st.integers(min_value=1, max_value=8))
    streams = []
    for _ in range(n):
        length = draw(st.integers(min_value=0, max_value=60))
        spawn_turn = draw(st.integers(min_value=0, max_value=20)) if with_churn else 0
        limit = (
            draw(st.one_of(st.none(), st.integers(min_value=0, max_value=70)))
            if with_churn
            else None
        )
        streams.append(
            ProcessStream(length=length, spawn_turn=spawn_turn, limit=limit)
        )
    schedule = draw(st.sampled_from(["round-robin", "random"]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    quantum = draw(st.integers(min_value=1, max_value=9))
    return streams, schedule, seed, quantum


def expand(streams, schedule, seed, quantum):
    pairs = []
    for segment in stream_segments(
        streams, schedule=schedule, seed=seed, quantum=quantum
    ):
        assert segment.start < segment.stop  # no empty turns
        for index in range(segment.start, segment.stop):
            pairs.append((segment.process, index))
    return pairs


@settings(max_examples=60, deadline=None)
@given(fleets())
def test_every_record_exactly_once_in_order(fleet):
    """Churn never replays or drops a record: each process contributes
    exactly its effective prefix, in cursor order."""
    streams, schedule, seed, quantum = fleet
    pairs = expand(streams, schedule, seed, quantum)
    for process, stream in enumerate(streams):
        indices = [i for p, i in pairs if p == process]
        assert indices == list(range(stream.effective_length))


@settings(max_examples=60, deadline=None)
@given(fleets())
def test_schedule_is_deterministic(fleet):
    streams, schedule, seed, quantum = fleet
    first = list(
        stream_segments(streams, schedule=schedule, seed=seed, quantum=quantum)
    )
    second = list(
        stream_segments(streams, schedule=schedule, seed=seed, quantum=quantum)
    )
    assert first == second


@settings(max_examples=60, deadline=None)
@given(fleets())
def test_segments_respect_quantum(fleet):
    streams, schedule, seed, quantum = fleet
    for segment in stream_segments(
        streams, schedule=schedule, seed=seed, quantum=quantum
    ):
        assert segment.stop - segment.start <= quantum


@settings(max_examples=60, deadline=None)
@given(fleets(with_churn=True))
def test_spawn_delay_holds_while_starters_run(fleet):
    """A late-spawning process never runs during its delay window while
    turn-0 processes still have records (the clock only fast-forwards
    when everyone alive has drained)."""
    streams, schedule, seed, quantum = fleet
    segments = list(
        stream_segments(streams, schedule=schedule, seed=seed, quantum=quantum)
    )
    starters_total = sum(
        s.effective_length for s in streams if s.spawn_turn == 0
    )
    for process, stream in enumerate(streams):
        if stream.spawn_turn == 0:
            continue
        consumed_before = 0
        for position, segment in enumerate(segments):
            if segment.process == process:
                # Either the delay elapsed turn by turn, or every
                # starter record was consumed first (fast-forward).
                assert (
                    position >= stream.spawn_turn
                    or consumed_before == starters_total
                )
                break
            if streams[segment.process].spawn_turn == 0:
                consumed_before += segment.stop - segment.start


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=6),
    st.sampled_from(["round-robin", "random"]),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=1, max_value=7),
)
def test_matches_reference_interleaver_without_churn(lengths, schedule, seed, quantum):
    """With churn off, expanding fleet segments reproduces the
    reference interleaver's (process, global_time) stream exactly."""
    logs = [_log(f"p{i}", n, stride=3 + i) for i, n in enumerate(lengths)]
    reference = [
        (s.process, s.global_time)
        for s in interleave_logs(logs, schedule=schedule, seed=seed, quantum=quantum)
    ]
    # Stream lengths come from the built logs (which append EndOfLog
    # records), not the raw record-count parameter.
    streams = [ProcessStream(length=len(log.records)) for log in logs]
    last_time = [0] * len(logs)
    global_time = 0
    ours = []
    for segment in stream_segments(
        streams, schedule=schedule, seed=seed, quantum=quantum
    ):
        for index in range(segment.start, segment.stop):
            record = logs[segment.process].records[index]
            delta = record.time - last_time[segment.process]
            if delta > 0:
                global_time += delta
            last_time[segment.process] = record.time
            ours.append((segment.process, global_time))
    assert ours == reference
    # Global virtual time is monotone non-decreasing along the stream.
    assert all(a[1] <= b[1] for a, b in zip(ours, ours[1:]))
